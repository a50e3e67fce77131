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
// device, every candidate through run, and returns every measured point,
// best first.
func TunePattern(run runner, toolchain string, a *arch.Device, benchName string, scale int) (*Report, error) {
	return tunePattern(run, toolchain, a, benchName, scale, 1)
}

// TunePatternParallel is TunePattern with concurrent candidate evaluation.
// The simulator is a deterministic function of the job, and the final sort
// is a total order (status, value, then mangle), so the report is
// point-for-point identical to the sequential tuner's.
func TunePatternParallel(run runner, toolchain string, a *arch.Device, benchName string, scale, workers int) (*Report, error) {
	if workers < 1 {
		workers = 1
	}
	return tunePattern(run, toolchain, a, benchName, scale, workers)
}

func tunePattern(run runner, toolchain string, a *arch.Device, benchName string, scale, workers int) (*Report, error) {
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
			points[i], errs[i] = measure(run, toolchain, a, spec, bench.Config{Scale: scale, Pattern: s.Mangle()})
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
