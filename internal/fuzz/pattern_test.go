package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gpucmp/internal/pattern"
)

// TestPatternFreshSeedsAllDevices is the pattern-DSL acceptance sweep:
// freshly generated combinator programs, each lowered at several schedules
// from its rule space, compiled with both personalities, executed on every
// modelled device, and diffed bit-for-bit against the schedule-aware
// evaluator.
func TestPatternFreshSeedsAllDevices(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	var (
		mu         sync.Mutex
		executions int
		skipped    int
	)
	jobs := make(chan uint64)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range jobs {
				c := GenPatternCase(seed)
				res, err := CheckPattern(c, nil)
				mu.Lock()
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
				} else {
					executions += res.Executions
					skipped += len(res.Skipped)
					if res.Failure != nil {
						t.Errorf("%v", res.Failure)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		jobs <- seed
	}
	close(jobs)
	wg.Wait()
	if executions == 0 {
		t.Fatal("no executions completed")
	}
	t.Logf("%d seeds, %d executions, %d skipped launches", seeds, executions, skipped)
}

// TestGenPatternCaseDeterministic: the same seed must yield a
// byte-identical case, or corpus seeds and CI campaigns would not replay.
func TestGenPatternCaseDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, err := EncodePatternCase(GenPatternCase(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodePatternCase(GenPatternCase(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestGenPatternCoversEveryKind: the seed stream must exercise all five
// program kinds, or a lowering path could silently lose fuzz coverage.
func TestGenPatternCoversEveryKind(t *testing.T) {
	seen := map[pattern.Kind]bool{}
	for seed := uint64(1); seed <= 60; seed++ {
		seen[GenPatternCase(seed).Prog.Kind()] = true
	}
	for _, k := range []pattern.Kind{pattern.KindMap, pattern.KindReduce, pattern.KindScan, pattern.KindStencil2D, pattern.KindMatMul} {
		if !seen[k] {
			t.Errorf("60 seeds never generated a %s program", k)
		}
	}
}

func pcorpusFiles(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir("pcorpus")
	if err != nil {
		t.Fatalf("reading pcorpus dir: %v", err)
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, filepath.Join("pcorpus", e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatal("pcorpus directory is empty")
	}
	return files
}

// TestPatternCorpusReplay: every pinned pattern case replays through the
// full oracle on every device as part of plain `go test`.
func TestPatternCorpusReplay(t *testing.T) {
	for _, path := range pcorpusFiles(t) {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			c, err := DecodePatternCase(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := CheckPattern(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failure != nil {
				t.Fatalf("pattern corpus regression: %v", res.Failure)
			}
			if res.Executions == 0 {
				t.Fatal("no executions completed")
			}
		})
	}
}

// TestPatternCorpusEncodingStable: stored files must be exactly what
// EncodePatternCase emits for them today.
func TestPatternCorpusEncodingStable(t *testing.T) {
	for _, path := range pcorpusFiles(t) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodePatternCase(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out, err := EncodePatternCase(c)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if strings.TrimRight(string(data), "\n") != string(out) {
			t.Errorf("%s: re-encoding differs from the stored file; regenerate with PCORPUS_WRITE=1", path)
		}
	}
}

// TestRegeneratePatternCorpus rewrites pcorpus/ from fixed seeds when
// PCORPUS_WRITE is set; otherwise it only documents the procedure.
func TestRegeneratePatternCorpus(t *testing.T) {
	if os.Getenv("PCORPUS_WRITE") == "" {
		t.Skip("set PCORPUS_WRITE=1 to rewrite pcorpus/ from the pinned seed list")
	}
	// At least one seed per kind (1,23 scan; 2,5 map; 3,7 reduce; 4 matmul;
	// 16 stencil2d); keep this list stable so corpus diffs stay reviewable.
	seeds := []uint64{1, 2, 3, 4, 5, 7, 16, 23}
	if err := os.MkdirAll("pcorpus", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		c := GenPatternCase(seed)
		data, err := EncodePatternCase(c)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("pcorpus", c.Prog.ProgName()+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%s)", path, c.Prog.Kind())
	}
}

// TestLaunchProgramBridgesToShrinker: a lowered pattern kernel wraps into
// a fuzz.Program whose reference execution reproduces the evaluator, and
// the existing shrinker accepts it — the path a real pattern divergence
// would take to minimisation.
func TestLaunchProgramBridgesToShrinker(t *testing.T) {
	c := GenPatternCase(3) // any 1-D case works; seed 3 is a reduce
	var oneD *PatternCase
	for seed := uint64(1); seed <= 40; seed++ {
		c = GenPatternCase(seed)
		if c.Prog.Kind() == pattern.KindReduce {
			oneD = c
			break
		}
	}
	if oneD == nil {
		t.Fatal("no reduce case in the first 40 seeds")
	}
	s := oneD.Scheds[0]
	l, err := pattern.Lower(oneD.Prog, s, oneD.Shape)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pattern.Eval(oneD.Prog, s, oneD.Shape, oneD.In)
	if err != nil {
		t.Fatal(err)
	}

	last := len(l.Launches) - 1
	p, err := LaunchProgram(l, last, oneD.In, oneD.Seed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reference(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wrapped program output has %d words, evaluator %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("word %d: wrapped program %#x, evaluator %#x", i, got[i], want[i])
		}
	}

	// The shrinker accepts the wrapped program: minimise against "word 0
	// keeps its value" and verify the result still satisfies the predicate.
	target := want[0]
	// Shrink requires a deterministic predicate. Deleting a guard can turn
	// the race-free reduce kernel into one with racing global writes, and
	// this predicate stays sound anyway because kir.Run steps every block
	// through one fixed sequential interleaving — a racy candidate has a
	// defined, reproducible word 0.
	interesting := func(cand *Program) bool {
		out, err := Reference(cand)
		return err == nil && len(out) > 0 && out[0] == target
	}
	small := Shrink(p, interesting)
	if !interesting(small) {
		t.Fatal("shrunk program no longer satisfies the predicate")
	}
}
