package fuzz

// Check runs the reference, both compiles and every execution side by side
// and then reads their outcomes in the order one loop on one goroutine
// would have met them. These tests pin that order: outcomes planted per
// toolchain and per (toolchain, device) through check's compile and execute
// parameters, the whole program pool against the loop written out below,
// and the hang corpus, where the reference's verdict must keep every
// execution from starting.

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// checkSequential is the oracle as one loop: what Check was before it
// fanned out, kept as the specification its fold is held to.
func checkSequential(p *Program, devices []*arch.Device, compile compileFunc, execute executeFunc) (*Result, error) {
	want, err := Reference(p)
	if err != nil {
		return nil, err
	}
	res := &Result{Seed: p.Seed}
	for _, pers := range Toolchains() {
		pk, err := compile(p.Kernel, pers)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: compile %s: %w", p.Seed, pers.Name, err)
		}
		for _, a := range devices {
			got, tr, err := execute(p, pk, a)
			if err != nil {
				if errors.Is(err, sim.ErrOutOfResources) {
					res.Skipped = append(res.Skipped,
						fmt.Sprintf("%s/%s: %v", pers.Name, a.Name, err))
					continue
				}
				return nil, fmt.Errorf("fuzz: seed %d: %s on %s: %w\n%s",
					p.Seed, pers.Name, a.Name, err, pk.Disassemble())
			}
			res.Executions++
			res.WarpInstrs += tr.Dyn.Total
			res.LaneInstrs += tr.LaneInstrs
			if d := diff(p, pers.Name, a.Name, got, want, tr, pk); d != nil {
				res.Divergence = d
				return res, nil
			}
		}
	}
	return res, nil
}

// outcome is how a planted compile or execution ends.
type outcome int

const (
	endsRight outcome = iota
	endsWrong
	endsSkipped
	endsFailed
	endsPanicked
)

// pair names one execution, or with no device one compile.
type pair struct{ toolchain, device string }

// planted is Execute with the pairs in plan ending as the plan says; calls
// counts every invocation.
func planted(plan map[pair]outcome, calls *atomic.Int64) executeFunc {
	return func(p *Program, pk *ptx.Kernel, a *arch.Device) ([]uint32, *sim.Trace, error) {
		calls.Add(1)
		got, tr, err := Execute(p, pk, a)
		switch plan[pair{pk.Toolchain, a.Name}] {
		case endsWrong:
			if err == nil {
				got[0] ^= 1
			}
		case endsSkipped:
			return nil, nil, fmt.Errorf("planted: %w", sim.ErrOutOfResources)
		case endsFailed:
			return nil, nil, errors.New("planted failure")
		case endsPanicked:
			panic("planted panic")
		}
		return got, tr, err
	}
}

// plantedCompile is compiler.Compile with the toolchains in plan ending as
// the plan says. No program reaches these outcomes on one toolchain alone:
// Compile refuses what kir.Check refuses before either personality is
// consulted.
func plantedCompile(plan map[pair]outcome) compileFunc {
	return func(k *kir.Kernel, pers compiler.Personality) (*ptx.Kernel, error) {
		switch plan[pair{toolchain: pers.Name}] {
		case endsFailed:
			return nil, errors.New("planted failure")
		case endsPanicked:
			panic("planted panic")
		}
		return compiler.Compile(k, pers)
	}
}

// storeProgram is a one-statement program: out[gid+offset] = gid. A
// non-zero offset sends the store out of range and fails the reference.
func storeProgram(t *testing.T, offset uint32) *Program {
	t.Helper()
	b := kir.NewKernel("store")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(out, kir.Add(gid, kir.U(offset)), gid)
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Program{Kernel: k, Grid: 2, Block: 32, Out: "out",
		Buffers: map[string][]uint32{"out": make([]uint32, 64)}}
}

func TestCheckFoldOrder(t *testing.T) {
	devices := arch.All()
	dev := func(i int) string { return devices[i].Name }
	seed1 := Generate(1, DefaultConfig()) // agrees everywhere, no device skips it

	cases := []struct {
		name string
		prog *Program
		plan map[pair]outcome
		// finishFirst, when set, has finished before thenStart begins: the
		// planted outcomes complete in the reverse of fold order.
		finishFirst, thenStart pair

		div       pair     // the reported divergence; zero for none
		execs     int      // Result.Executions
		skipped   []string // Result.Skipped
		err       string   // what the error starts with; "" for none
		panicWith []string // pieces of the re-raised panic; nil for none
		calls     int64    // executions started
	}{
		{
			name: "two divergences, the later pair finishing first",
			prog: seed1,
			plan: map[pair]outcome{
				{"cuda", dev(3)}:   endsWrong,
				{"opencl", dev(0)}: endsWrong,
			},
			finishFirst: pair{"opencl", dev(0)}, thenStart: pair{"cuda", dev(3)},
			div: pair{"cuda", dev(3)}, execs: 4, calls: 10,
		},
		{
			name: "out of resources on both toolchains",
			prog: seed1,
			plan: map[pair]outcome{
				{"opencl", dev(4)}: endsSkipped,
				{"cuda", dev(2)}:   endsSkipped,
				{"opencl", dev(1)}: endsSkipped,
			},
			skipped: []string{
				"cuda/" + dev(2) + ": planted: out of resources",
				"opencl/" + dev(1) + ": planted: out of resources",
				"opencl/" + dev(4) + ": planted: out of resources",
			},
			execs: 7, calls: 10,
		},
		{
			name:  "compile error behind a clean toolchain",
			prog:  seed1,
			plan:  map[pair]outcome{{toolchain: "opencl"}: endsFailed},
			err:   "fuzz: seed 1: compile opencl: planted failure",
			calls: 5,
		},
		{
			name: "execution error behind a divergence",
			prog: seed1,
			plan: map[pair]outcome{
				{"cuda", dev(1)}:   endsWrong,
				{"opencl", dev(0)}: endsFailed,
			},
			div: pair{"cuda", dev(1)}, execs: 2, calls: 10,
		},
		{
			name: "execution error ahead of a divergence",
			prog: seed1,
			plan: map[pair]outcome{
				{"cuda", dev(1)}:   endsFailed,
				{"opencl", dev(0)}: endsWrong,
			},
			err:   "fuzz: seed 1: cuda on " + dev(1) + ": planted failure\n",
			calls: 10,
		},
		{
			name:  "failing reference",
			prog:  storeProgram(t, 1000),
			plan:  map[pair]outcome{{"cuda", dev(0)}: endsPanicked},
			err:   "fuzz: seed 0: reference: kir: Run: block (0,0) thread 0 (tid 0,0): store to out[1000] out of range (64)",
			calls: 0,
		},
		{
			name: "panicking executions",
			prog: seed1,
			plan: map[pair]outcome{
				{"opencl", dev(0)}: endsPanicked,
				{"cuda", dev(2)}:   endsPanicked,
			},
			panicWith: []string{
				"fuzz: seed 1: cuda on " + dev(2) + ": panic: planted panic\n",
				"goroutine ", "check_test.go:", // the stack it died on
			},
			calls: 10,
		},
		{
			name: "panicking compile behind a skip",
			prog: seed1,
			plan: map[pair]outcome{
				{"cuda", dev(4)}:      endsSkipped,
				{toolchain: "opencl"}: endsPanicked,
			},
			panicWith: []string{
				"fuzz: seed 1: compile opencl: panic: planted panic\n",
				"goroutine ", "check_test.go:",
			},
			calls: 5,
		},
		{
			name: "panic behind a divergence",
			prog: seed1,
			plan: map[pair]outcome{
				{"cuda", dev(0)}: endsWrong,
				{"cuda", dev(1)}: endsPanicked,
			},
			div: pair{"cuda", dev(0)}, execs: 1, calls: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			execute := planted(tc.plan, &calls)
			if tc.finishFirst != (pair{}) {
				inner, finished := execute, make(chan struct{})
				execute = func(p *Program, pk *ptx.Kernel, a *arch.Device) ([]uint32, *sim.Trace, error) {
					switch (pair{pk.Toolchain, a.Name}) {
					case tc.finishFirst:
						defer close(finished)
					case tc.thenStart:
						<-finished
					}
					return inner(p, pk, a)
				}
			}
			var (
				res    *Result
				err    error
				raised any
			)
			func() {
				defer func() { raised = recover() }()
				res, err = check(tc.prog, devices, plantedCompile(tc.plan), execute)
			}()
			if got := calls.Load(); got != tc.calls {
				t.Errorf("%d executions started, want %d", got, tc.calls)
			}

			if tc.panicWith != nil {
				msg, _ := raised.(string)
				for _, piece := range tc.panicWith {
					if !strings.Contains(msg, piece) {
						t.Errorf("re-raised panic lacks %q:\n%v", piece, raised)
					}
				}
				return
			}
			if raised != nil {
				t.Fatalf("check panicked: %v", raised)
			}

			var n atomic.Int64
			seqRes, seqErr := checkSequential(tc.prog, devices, plantedCompile(tc.plan), planted(tc.plan, &n))
			if !reflect.DeepEqual(res, seqRes) {
				t.Errorf("result differs from the sequential fold:\n got %+v\nwant %+v", res, seqRes)
			}
			if fmt.Sprint(err) != fmt.Sprint(seqErr) {
				t.Errorf("error differs from the sequential fold:\n got %v\nwant %v", err, seqErr)
			}

			if tc.err != "" {
				if err == nil || !strings.HasPrefix(err.Error(), tc.err) {
					t.Fatalf("error = %v, want it to start with %q", err, tc.err)
				}
				if res != nil {
					t.Errorf("result = %+v beside an error", res)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var div pair
			if d := res.Divergence; d != nil {
				div = pair{d.Toolchain, d.Device}
			}
			if div != tc.div {
				t.Errorf("divergence reported for %v, want %v", div, tc.div)
			}
			if res.Executions != tc.execs {
				t.Errorf("Executions = %d, want %d", res.Executions, tc.execs)
			}
			if !reflect.DeepEqual(res.Skipped, tc.skipped) {
				t.Errorf("Skipped = %q, want %q", res.Skipped, tc.skipped)
			}
		})
	}
}

// TestCheckEqualsSequentialFold: over the benchmark's pool, the far window
// and the corpus, Check returns exactly what the loop returns — on the
// programs as they are (they all agree, so this is the totals and the
// skips), and with a divergence planted on two pairs, the later one first
// in device order, so that the report and the totals up to it are compared
// too.
func TestCheckEqualsSequentialFold(t *testing.T) {
	devices := arch.All()
	var progs []*Program
	for _, w := range []struct{ first, n uint64 }{{1, 100}, {204000000, 50}} {
		for s := w.first; s < w.first+w.n; s++ {
			progs = append(progs, Generate(s, DefaultConfig()))
		}
	}
	for _, path := range corpusFiles(t) {
		progs = append(progs, loadProgram(t, path))
	}
	var calls atomic.Int64
	for _, tc := range []struct {
		name    string
		execute executeFunc
		planted bool
	}{
		{"as is", Execute, false},
		{"planted divergence", planted(map[pair]outcome{
			{"opencl", devices[1].Name}: endsWrong,
			{"cuda", devices[3].Name}:   endsWrong,
		}, &calls), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range progs {
				got, gotErr := check(p, devices, compiler.Compile, tc.execute)
				want, wantErr := checkSequential(p, devices, compiler.Compile, tc.execute)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: result differs from the sequential fold:\n got %+v\nwant %+v", p.Kernel.Name, got, want)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s: error differs from the sequential fold:\n got %v\nwant %v", p.Kernel.Name, gotErr, wantErr)
				}
				if tc.planted && gotErr == nil && got.Divergence == nil {
					t.Errorf("%s: the planted divergence went unreported", p.Kernel.Name)
				}
			}
		})
	}
}

// TestCheckHangCorpusRunsNothing: a program the reference kills comes back
// with the reference's error — the whole string, recorded before Check
// fanned out — and none of its executions has started. The shrinker's cost
// bound rests on this: a hanging candidate costs one watchdog budget, not
// eleven.
func TestCheckHangCorpusRunsNothing(t *testing.T) {
	const want = "fuzz: seed 0: reference: kir: Run: block (0,0) thread 0 (tid 0,0) killed after 4194305 steps: kir: watchdog: step budget exceeded"
	files, err := filepath.Glob(filepath.Join("corpus", "hangs", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("hang corpus: %v, %d files", err, len(files))
	}
	for _, path := range files {
		var calls atomic.Int64
		res, err := check(loadProgram(t, path), nil, compiler.Compile, planted(nil, &calls))
		if !errors.Is(err, kir.ErrWatchdog) || err.Error() != want {
			t.Errorf("%s: error = %v\nwant %s", path, err, want)
		}
		if res != nil {
			t.Errorf("%s: result = %+v beside an error", path, res)
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("%s: %d executions started behind a failing reference", path, n)
		}
	}
}
