package fuzz

// Engine-equivalence gate: the production interpreter (predecoded, fused,
// block-compiled) must be observationally indistinguishable from the
// retained reference engine. Every corpus program — including the hang
// corpus, which exercises the watchdog — replays on both engines across
// every device and both compiler personalities, and everything observable
// must match bit for bit: the dynamic trace, the entire allocated global
// memory and constant segment contents, and the error taxonomy (identical
// strings sequentially, identical error class in parallel, where which
// compute unit's error surfaces first is a legitimate race).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// equivEngines is the set of engines checked against the reference.
var equivEngines = []sim.Engine{sim.EngineThreaded}

// equivCorpusFiles returns every corpus program, including the hang
// corpus that the ordinary replay test skips.
func equivCorpusFiles(t *testing.T) []string {
	t.Helper()
	files := corpusFiles(t)
	hangs, err := os.ReadDir(filepath.Join("corpus", "hangs"))
	if err != nil {
		t.Fatalf("reading hang corpus: %v", err)
	}
	n := 0
	for _, e := range hangs {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, filepath.Join("corpus", "hangs", e.Name()))
			n++
		}
	}
	if n == 0 {
		t.Fatal("hang corpus is empty")
	}
	return files
}

// loadProgram decodes one corpus file.
func loadProgram(t *testing.T, path string) *Program {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return p
}

// equivRun is one engine execution: the trace, a dump of all observable
// device memory, and the launch error.
type equivRun struct {
	trace  *sim.Trace
	global []uint32
	err    error
}

// runEngineK stages and launches one corpus program the way the oracle
// does (fuzz.Execute), but on a device with explicit engine/parallelism
// knobs, and dumps the whole allocated global memory afterwards so stores
// outside the nominal output buffer are compared too.
func runEngineK(t *testing.T, p *Program, pk *ptx.Kernel, a *arch.Device, engine sim.Engine, parallel bool, budget uint64) *equivRun {
	t.Helper()
	dev, err := sim.NewDevice(a)
	if err != nil {
		t.Fatal(err)
	}
	dev.Engine = engine
	dev.Parallel = parallel
	dev.StepBudget = budget
	var args []uint32
	for _, prm := range p.Kernel.Params {
		if !prm.Buffer {
			args = append(args, p.Scalars[prm.Name])
			continue
		}
		data := p.Buffers[prm.Name]
		if prm.Space == kir.Const {
			off, err := dev.ConstAlloc(uint32(4 * len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.ConstWrite(off, data); err != nil {
				t.Fatal(err)
			}
			args = append(args, off)
			continue
		}
		addr, err := dev.Global.Alloc(uint32(4 * len(data)))
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Global.WriteWords(addr, data); err != nil {
			t.Fatal(err)
		}
		args = append(args, addr)
	}
	r := &equivRun{}
	r.trace, r.err = dev.Launch(pk, sim.Dim3{X: p.Grid, Y: 1}, sim.Dim3{X: p.Block, Y: 1}, args)
	r.global = make([]uint32, dev.Global.InUse()/4)
	if err := dev.Global.ReadWords(0, r.global); err != nil {
		t.Fatal(err)
	}
	return r
}

func equivBudget(path string) uint64 {
	if strings.Contains(path, "hangs") {
		// Hang programs run straight into the budget; a small shared budget
		// keeps the replay fast, and the watchdog verdict is identical for
		// both engines at any common value.
		return 1 << 18
	}
	return 1 << 22
}

// TestCorpusEngineEquivalence replays the full corpus, the hang corpus
// included, sequentially on every engine and requires strict equality
// with the reference: traces, all of device memory, and error strings.
func TestCorpusEngineEquivalence(t *testing.T) {
	for _, path := range equivCorpusFiles(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			budget := equivBudget(path)
			for _, pers := range Toolchains() {
				pk, err := compiler.Compile(p.Kernel, pers)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range arch.All() {
					ref := runEngineK(t, p, pk, a, sim.EngineReference, false, budget)
					for _, eng := range equivEngines {
						got := runEngineK(t, p, pk, a, eng, false, budget)
						label := pers.Name + "/" + a.Name + "/" + eng.String()
						switch {
						case ref.err != nil && got.err != nil:
							if ref.err.Error() != got.err.Error() {
								t.Fatalf("%s: error mismatch:\nreference: %v\n%s: %v", label, ref.err, eng, got.err)
							}
						case (ref.err == nil) != (got.err == nil):
							t.Fatalf("%s: reference err=%v, %s err=%v", label, ref.err, eng, got.err)
						default:
							if !reflect.DeepEqual(ref.trace, got.trace) {
								t.Fatalf("%s: trace mismatch:\nreference: %s\n%s: %s",
									label, ref.trace.Summary(), eng, got.trace.Summary())
							}
						}
						if !reflect.DeepEqual(ref.global, got.global) {
							for i := range ref.global {
								if ref.global[i] != got.global[i] {
									t.Fatalf("%s: global memory differs at word %d: reference %#x, %s %#x",
										label, i, ref.global[i], eng, got.global[i])
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestCorpusEngineEquivalenceParallel replays the corpus with the
// production engine's parallel compute units against the sequential
// reference. Successful launches must still match bit for bit (per-CU
// statistic shards merge in a fixed order, so parallelism is invisible);
// failing launches must fail in the same error class (which compute
// unit's error surfaces first is a race once sibling cancellation is in
// play).
//
// Freshly generated programs ride along after the corpus. Execute launches
// on its caller, so nothing else runs a generated program's two work-groups
// on two goroutines, and under -race this is where such a program meets the
// race detector.
func TestCorpusEngineEquivalenceParallel(t *testing.T) {
	type input struct {
		name   string
		p      *Program
		budget uint64
	}
	var inputs []input
	for _, path := range equivCorpusFiles(t) {
		inputs = append(inputs, input{filepath.Base(path), loadProgram(t, path), equivBudget(path)})
	}
	for _, w := range []struct{ first, n uint64 }{{1, 100}, {204000000, 50}} {
		for seed := w.first; seed < w.first+w.n; seed++ {
			inputs = append(inputs, input{fmt.Sprintf("gen%d", seed), Generate(seed, DefaultConfig()), simStepBudget})
		}
	}
	for _, in := range inputs {
		in := in
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			p := in.p
			for _, pers := range Toolchains() {
				pk, err := compiler.Compile(p.Kernel, pers)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range arch.All() {
					ref := runEngineK(t, p, pk, a, sim.EngineReference, false, in.budget)
					for _, eng := range equivEngines {
						got := runEngineK(t, p, pk, a, eng, true, in.budget)
						label := pers.Name + "/" + a.Name + "/" + eng.String()
						switch {
						case ref.err != nil && got.err != nil:
							if errors.Is(ref.err, sim.ErrWatchdog) != errors.Is(got.err, sim.ErrWatchdog) {
								t.Fatalf("%s: error class mismatch:\nreference: %v\n%s: %v", label, ref.err, eng, got.err)
							}
						case (ref.err == nil) != (got.err == nil):
							t.Fatalf("%s: reference err=%v, %s err=%v", label, ref.err, eng, got.err)
						default:
							if !reflect.DeepEqual(ref.trace, got.trace) {
								t.Fatalf("%s: trace mismatch:\nreference: %s\n%s: %s",
									label, ref.trace.Summary(), eng, got.trace.Summary())
							}
							if !reflect.DeepEqual(ref.global, got.global) {
								t.Fatalf("%s: global memory differs", label)
							}
						}
					}
				}
			}
		})
	}
}
