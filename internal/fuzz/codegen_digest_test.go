package fuzz

// Codegen digest: the compiler's output for a fixed set of kernels, held
// byte for byte by SHA-256 sums recorded in testdata/codegen.digest. Register
// numbering depends on the order in which the front end's value-numbering
// table hits, stores and evicts, so a change that is meant to be invisible
// in the listing (a different table key, a different allocator structure)
// is checked here, not by the oracle: one wrong key equality shows up as a
// different listing long before it shows up as a wrong result.
//
// Three groups are recorded. "cuda" and "opencl" hold, per personality, the
// disassembly, remarks, pass stats and resource footprint of
// Generate(1..300), Generate(204000000..204000099) and every corpus file.
// "paper" holds bench.KernelReports (footprint, pass stats, remarks) of the
// sixteen benchmarks under both toolchains on GTX480 at scale 2, whose
// dynamic counts benchmark/golden/paper-grid.json already pins.
//
// Besides each group's sum the file keeps one fingerprint per kernel — one
// character per line, taken from a running hash — which is what lets a
// mismatch name the first differing kernel and line instead of only saying
// "different". After a deliberate codegen change, inspect that report and
// regenerate with `go test ./internal/fuzz -run TestCodegenDigest -update`.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/ptx"
)

var update = flag.Bool("update", false, "rewrite testdata/codegen.digest from the current compiler")

const codegenDigestFile = "testdata/codegen.digest"

// digestKernel is one kernel's contribution to a group: an id and the
// lines that describe everything the compiler decided about it.
type digestKernel struct {
	id    string
	lines []string
}

// fingerprint returns one character per line, each the low six bits of a
// hash of all lines so far, then the full final hash: a changed line changes
// its own character or, failing that (1 in 64), the next one's.
func (k digestKernel) fingerprint() string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	h := fnv.New64a()
	var b strings.Builder
	for _, l := range k.lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
		b.WriteByte(alphabet[h.Sum64()&63])
	}
	fmt.Fprintf(&b, ".%016x", h.Sum64())
	return b.String()
}

// compiledLines renders a compiled kernel: the listing, then every remark
// (with its count if it repeated), every pass stat and the resource
// footprint.
func compiledLines(pk *ptx.Kernel) []string {
	lines := strings.Split(strings.TrimRight(pk.Disassemble(), "\n"), "\n")
	for _, r := range pk.Remarks {
		line := "remark " + r.Phase + ": " + r.Message
		if r.Count > 1 {
			line += fmt.Sprintf(" (x%d)", r.Count)
		}
		lines = append(lines, line)
	}
	for _, s := range pk.PassStats {
		lines = append(lines, "pass "+s.String())
	}
	return append(lines, fmt.Sprintf("regs=%d shared=%d local=%d", pk.NumRegs, pk.SharedBytes, pk.LocalBytes))
}

// reportLines renders a kernel report as JSON, one line for the footprint
// and one per pass stat and remark.
func reportLines(t *testing.T, kr bench.KernelReport) []string {
	t.Helper()
	enc := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	head := kr
	head.PassStats, head.Remarks = nil, nil
	lines := []string{enc(head)}
	for _, s := range kr.PassStats {
		lines = append(lines, enc(s))
	}
	for _, r := range kr.Remarks {
		lines = append(lines, enc(r))
	}
	return lines
}

// digestPrograms returns the fuzz programs of the "cuda" and "opencl"
// groups, in digest order.
func digestPrograms(t *testing.T) (ids []string, progs []*Program) {
	t.Helper()
	for _, w := range []struct{ first, n uint64 }{{1, 300}, {204000000, 100}} {
		for s := w.first; s < w.first+w.n; s++ {
			ids = append(ids, fmt.Sprintf("gen:%d", s))
			progs = append(progs, Generate(s, DefaultConfig()))
		}
	}
	for _, path := range equivCorpusFiles(t) {
		ids = append(ids, filepath.ToSlash(path))
		progs = append(progs, loadProgram(t, path))
	}
	return ids, progs
}

// digestGroups compiles everything the digest covers.
func digestGroups(t *testing.T) (names []string, groups map[string][]digestKernel) {
	t.Helper()
	groups = map[string][]digestKernel{}
	ids, progs := digestPrograms(t)
	for _, pers := range Toolchains() {
		names = append(names, pers.Name)
		for i, p := range progs {
			pk, err := compiler.Compile(p.Kernel, pers)
			if err != nil {
				t.Fatalf("%s: compile %s: %v", ids[i], pers.Name, err)
			}
			groups[pers.Name] = append(groups[pers.Name], digestKernel{ids[i], compiledLines(pk)})
		}
	}
	names = append(names, "paper")
	for _, spec := range bench.Registry() {
		for _, toolchain := range []string{"cuda", "opencl"} {
			d, err := bench.NewDriver(toolchain, arch.GTX480())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spec.Run(d, bench.Config{Scale: 2}); err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, toolchain, err)
			}
			for _, kr := range bench.KernelReports(d) {
				id := spec.Name + "/" + toolchain + "/" + kr.Name
				groups["paper"] = append(groups["paper"], digestKernel{id, reportLines(t, kr)})
			}
		}
	}
	return names, groups
}

func groupSum(ks []digestKernel) string {
	h := sha256.New()
	for _, k := range ks {
		fmt.Fprintf(h, "== %s\n", k.id)
		for _, l := range k.lines {
			h.Write([]byte(l))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCodegenDigest(t *testing.T) {
	names, groups := digestGroups(t)

	if *update {
		var b strings.Builder
		b.WriteString("# Written by `go test ./internal/fuzz -run TestCodegenDigest -update`; see codegen_digest_test.go.\n")
		for _, g := range names {
			fmt.Fprintf(&b, "%s sha256 %s\n", g, groupSum(groups[g]))
		}
		for _, g := range names {
			for _, k := range groups[g] {
				fmt.Fprintf(&b, "%s %s %s\n", g, k.id, k.fingerprint())
			}
		}
		if err := os.WriteFile(codegenDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// recorded maps "group id" (or "group sha256") to its recorded value.
	recorded := map[string]string{}
	data, err := os.ReadFile(codegenDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fs := strings.Fields(line); len(fs) == 3 {
			recorded[fs[0]+" "+fs[1]] = fs[2]
		}
	}

	for _, g := range names {
		want, ok := recorded[g+" sha256"]
		if !ok {
			t.Errorf("%s: no recorded sum in %s", g, codegenDigestFile)
			continue
		}
		if got := groupSum(groups[g]); got != want {
			t.Errorf("%s: codegen changed: sha256 %s, recorded %s\n%s", g, got, want, firstDifference(g, groups[g], recorded))
		}
	}
}

// firstDifference names the first kernel of the group whose fingerprint is
// not the recorded one, and the first line at which the two part.
func firstDifference(group string, ks []digestKernel, recorded map[string]string) string {
	for _, k := range ks {
		want, ok := recorded[group+" "+k.id]
		if !ok {
			return fmt.Sprintf("first difference: kernel %s is not in the recorded digest", k.id)
		}
		got := k.fingerprint()
		if got == want {
			continue
		}
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		if i < len(k.lines) {
			return fmt.Sprintf("first difference: kernel %s, line %d (now %d lines):\n  %s", k.id, i+1, len(k.lines), k.lines[i])
		}
		return fmt.Sprintf("first difference: kernel %s, after its last line (%d lines now)", k.id, len(k.lines))
	}
	return "no kernel's fingerprint differs: the set or order of kernels changed"
}
