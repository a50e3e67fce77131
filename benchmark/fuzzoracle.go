package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/sim"
)

const (
	// fuzzRoundPrograms is how many generated programs one round checks.
	fuzzRoundPrograms = 20
	// fuzzRoundSeconds is what one round takes on the reference host.
	fuzzRoundSeconds = 3.0
	// fuzzTracedPrograms is how many programs the traced run replays.
	fuzzTracedPrograms = 40
	// fuzzWarmPrograms are checked during set-up and never timed.
	fuzzWarmPrograms = 3
)

// fuzzOracle is the fuzz-oracle workload: a fixed pool of generated programs,
// in seed-shuffled order, through the three-way differential oracle on every
// modelled device.
type fuzzOracle struct {
	rounds   int
	perRound int // programs per round
	traced   int // programs the traced run replays
	programs []*fuzz.Program
	devices  []*arch.Device
	ballast  []byte // see newBallast
}

func newFuzzOracle(seconds int) *fuzzOracle {
	return &fuzzOracle{rounds: roundsFor(seconds, fuzzRoundSeconds),
		perRound: fuzzRoundPrograms, traced: fuzzTracedPrograms}
}

func (f *fuzzOracle) Name() string { return "fuzz-oracle" }
func (f *fuzzOracle) Rounds() int  { return f.rounds }
func (f *fuzzOracle) Verify() int  { return 0 }

// fuzzPool returns generated programs first..first+n-1. The pool is the same
// on every run and the run's seed only orders it: a generator seed taken
// from the run's seed found a real miscompile (fuzz.Generate(204000039)
// diverges under the OpenCL personality), and a workload must not fail for a
// reason the commit under test did not cause. Seeds 1..240 and the serve-cold
// range were checked clean when the benchmark was written.
func fuzzPool(first, n int) []*fuzz.Program {
	pool := make([]*fuzz.Program, n)
	for i := range pool {
		pool[i] = fuzz.Generate(uint64(first+i), fuzz.DefaultConfig())
	}
	return pool
}

func (f *fuzzOracle) Close() { f.ballast = nil }

func (f *fuzzOracle) Setup(seed int64) error {
	f.devices = arch.All()
	f.ballast = newBallast()
	n := max(f.rounds*f.perRound, f.traced)
	f.programs = fuzzPool(1, n)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(a, b int) { f.programs[a], f.programs[b] = f.programs[b], f.programs[a] })
	for _, p := range fuzzPool(n+1, fuzzWarmPrograms) {
		if _, err := fuzz.Check(p, f.devices); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (f *fuzzOracle) Round(r int) []opResult {
	out := make([]opResult, f.perRound)
	for i := range out {
		p := f.programs[r*f.perRound+i]
		t0 := time.Now()
		res, err := fuzz.Check(p, f.devices)
		out[i] = opResult{Latency: time.Since(t0), OK: err == nil && res.Divergence == nil}
	}
	return out
}

// Trace replays the first programs through the oracle's own steps —
// fuzz.Reference, compiler.Compile per toolchain, fuzz.Execute per device —
// with a span around each, and through fuzz.Check with spans off.
func (f *fuzzOracle) Trace(t *tracer) (layerMetrics, error) {
	lm := newLayerMetrics()
	programs := f.programs[:f.traced]
	var instrs []float64
	traced := func(i int) float64 {
		p := programs[i]
		root := t.begin(0, "fuzz", fmt.Sprintf("seed %d", p.Seed))
		s := t.begin(root, "kir", "reference")
		want, err := fuzz.Reference(p)
		t.end(s)
		ok := err == nil
		for _, pers := range fuzz.Toolchains() {
			if !ok {
				break
			}
			s := t.begin(root, "compiler", "compile "+pers.Name)
			pk, err := compiler.Compile(p.Kernel, pers)
			t.end(s)
			if err != nil {
				ok = false
				break
			}
			instrs = append(instrs, float64(len(pk.Instrs)))
			for _, a := range f.devices {
				s := t.begin(root, "sim", "execute "+a.Name)
				got, _, err := fuzz.Execute(p, pk, a)
				t.end(s)
				// Like fuzz.Check, a device that cannot hold the kernel is
				// skipped, not failed.
				if errors.Is(err, sim.ErrOutOfResources) {
					continue
				}
				if err != nil || !slices.Equal(got, want) {
					ok = false
				}
			}
		}
		seconds := t.end(root).Seconds()
		lm.attempted++
		if !ok {
			lm.failed++
		}
		return seconds
	}
	untraced := func(i int) float64 {
		t0 := time.Now()
		fuzz.Check(programs[i], f.devices) //nolint:errcheck // the traced twin checks the outcome
		return time.Since(t0).Seconds()
	}
	c0 := readProcessCounters()
	tr, un := pairedReplay(len(programs), traced, untraced)
	c1 := readProcessCounters()
	lm.addCounterDeltas(c0, c1, lm.addOverhead(tr, un))

	lm.addSelfTimes(t, map[string]string{"fuzz": "fuzz.check_self_ms"})
	lm.p50("kir.reference_ms", t.durations("kir", ""), "ms")
	lm.p50("compiler.cold_compile_ms", t.durations("compiler", ""), "ms")
	lm.p50("fuzz.execute_ms", t.durations("sim", "execute"), "ms")
	lm.set("compiler.instrs_out", median(instrs), "count", len(instrs))

	var gen []float64
	for _, p := range programs {
		t0 := time.Now()
		fuzz.Generate(p.Seed, fuzz.DefaultConfig())
		gen = append(gen, time.Since(t0).Seconds())
	}
	lm.p50("fuzz.generate_us", gen, "us")
	probeDeviceNew(lm)
	return lm, nil
}
