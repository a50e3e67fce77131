package tune

// The pattern-schedule tuner: where the knob tuner sweeps the handful of
// step-4 implementation switches a programmer exposed by hand, this one
// sweeps the rewrite-rule space of a pattern program (internal/pattern) —
// block sizes, fusion, tree reduction, tiling, unrolling, coarsening,
// constant-memory coefficient placement. Every candidate is a real
// benchmark run through the full compiler+simulator stack; the perfmodel
// prior only orders the search and breaks ties deterministically.

import (
	"fmt"
	"sort"
	"sync"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/pattern"
	"gpucmp/internal/perfmodel"
)

// TunePattern sweeps a pattern-portable benchmark's schedule space on one
// device and returns every measured point, best first.
func TunePattern(toolchain string, a *arch.Device, benchName string, scale int) (*Report, error) {
	return tunePattern(toolchain, a, benchName, scale, 1)
}

// TunePatternParallel is TunePattern with concurrent candidate evaluation.
// The simulator is a deterministic function of the job, and the final sort
// is a total order (status, value, then mangle), so the report is
// point-for-point identical to the sequential tuner's.
func TunePatternParallel(toolchain string, a *arch.Device, benchName string, scale, workers int) (*Report, error) {
	if workers < 1 {
		workers = 1
	}
	return tunePattern(toolchain, a, benchName, scale, workers)
}

func tunePattern(toolchain string, a *arch.Device, benchName string, scale, workers int) (*Report, error) {
	spec, err := bench.SpecByName(benchName)
	if err != nil {
		return nil, err
	}
	p, ok := bench.PatternProgram(benchName)
	if !ok {
		return nil, fmt.Errorf("tune: benchmark %q has no pattern program", benchName)
	}
	space := pattern.Space(p)
	// Evaluate likely winners first: prior descending, mangle ascending as
	// the deterministic tie-break.
	sort.SliceStable(space, func(i, j int) bool {
		pi := perfmodel.PatternPrior(a, p.Kind(), space[i])
		pj := perfmodel.PatternPrior(a, p.Kind(), space[j])
		if pi != pj {
			return pi > pj
		}
		return space[i].Mangle() < space[j].Mangle()
	})

	rep := &Report{Benchmark: benchName, Device: a.Name, Toolchain: toolchain, Metric: spec.Metric, Space: "pattern"}
	points := make([]Point, len(space))
	errs := make([]error, len(space))

	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, s := range space {
		wg.Add(1)
		go func(i int, s pattern.Schedule) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			points[i], errs[i] = measurePattern(toolchain, a, spec, scale, s.Mangle())
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep.Points = points

	// Total order: OK before failed, then value descending, then mangle
	// ascending — so parallel and sequential runs produce identical reports.
	sort.Slice(rep.Points, func(i, j int) bool {
		pi, pj := rep.Points[i], rep.Points[j]
		if (pi.Status == "OK") != (pj.Status == "OK") {
			return pi.Status == "OK"
		}
		if pi.Value != pj.Value {
			return pi.Value > pj.Value
		}
		return pi.Pattern < pj.Pattern
	})
	return rep, nil
}

// measurePattern runs one schedule candidate on a fresh driver.
func measurePattern(toolchain string, a *arch.Device, spec bench.Spec, scale int, mangle string) (Point, error) {
	cfg := bench.Config{Scale: scale, Pattern: mangle}
	d, err := bench.NewDriver(toolchain, a)
	if err != nil {
		return Point{}, err
	}
	res, err := spec.Run(d, cfg)
	if err != nil {
		return Point{}, err
	}
	pt := Point{Pattern: mangle, Config: cfg, Status: res.Status(), Raw: res.Value}
	if res.Err == nil {
		pt.Value = res.Value
		if spec.LowerIsBetter && res.Value > 0 {
			pt.Value = 1 / res.Value
		}
	}
	return pt, nil
}

// TuneAny tunes whichever variant space a benchmark has: the rewrite-rule
// schedule space for pattern-portable benchmarks, the step-4 knob space
// otherwise.
func TuneAny(toolchain string, a *arch.Device, benchName string, scale, workers int) (*Report, error) {
	if bench.IsPatternBench(benchName) {
		return TunePatternParallel(toolchain, a, benchName, scale, workers)
	}
	if RelevantKnobs(benchName) == nil {
		return nil, fmt.Errorf("tune: benchmark %q has neither variant knobs nor a pattern program", benchName)
	}
	return Tune(toolchain, a, benchName, scale)
}

// TuneAnyEverywhere runs TuneAny on every device that supports the
// toolchain — the "adapt to all available platforms" loop, now covering
// the pattern benchmarks too.
func TuneAnyEverywhere(toolchain, benchName string, scale, workers int) ([]*Report, error) {
	return everywhere(toolchain, func(a *arch.Device) (*Report, error) {
		return TuneAny(toolchain, a, benchName, scale, workers)
	})
}
