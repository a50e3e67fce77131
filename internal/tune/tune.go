// Package tune implements the auto-tuner the paper names as future work in
// its conclusion: "we would like to develop an auto-tuner to adapt
// general-purpose OpenCL programs to all available specific platforms to
// fully exploit the hardware."
//
// The tuner searches two variant spaces with one sweep. The knob space is
// the implementation choices a programmer controls in step 4 of the
// fair-comparison pipeline (texture memory, constant memory, unroll-pragma
// placement, warp-oriented kernels); the schedule space is the rewrite-rule
// schedules of a pattern program (block sizes, fusion, tree reduction,
// tiling, unrolling, coarsening, constant-memory coefficients). Every
// candidate is a bench.Config measured on the target device, and the report
// ranks them by the benchmark's Table II metric. Because the choices
// interact with architecture features (texture caches, constant caches,
// wavefront widths), the winning variant differs per device — which is
// exactly why the paper argues portable code needs an auto-tuner.
package tune

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

// knobs names every step-4 knob and the Config field it sets, in the order
// Label prints them.
var knobs = []struct {
	name string
	set  func(*bench.Config, bool)
}{
	{"texture-memory", func(c *bench.Config, on bool) { c.UseTexture = on }},
	{"constant-memory", func(c *bench.Config, on bool) { c.UseConstant = on }},
	{"unroll@a", func(c *bench.Config, on bool) { c.UnrollA = on }},
	{"unroll@b", func(c *bench.Config, on bool) { c.UnrollB = on }},
	{"warp-per-row", func(c *bench.Config, on bool) { c.VectorSPMV = on }},
	{"naive-transpose", func(c *bench.Config, on bool) { c.NaiveTranspose = on }},
}

// RelevantKnobs returns the names of the knobs a benchmark actually has.
func RelevantKnobs(benchName string) []string {
	switch benchName {
	case "MD":
		return []string{"texture-memory"}
	case "SPMV":
		return []string{"texture-memory", "warp-per-row"}
	case "Sobel":
		return []string{"constant-memory"}
	case "FDTD":
		return []string{"unroll@a", "unroll@b"}
	case "TranP":
		return []string{"naive-transpose"}
	default:
		return nil
	}
}

// Point is one evaluated configuration: either a knob assignment (Settings)
// or a pattern schedule (Pattern), never both.
type Point struct {
	Settings map[string]bool `json:"settings,omitempty"` // knob name -> on
	Pattern  string          `json:"pattern,omitempty"`  // schedule mangle (pattern space)
	Config   bench.Config    `json:"config"`
	Value    float64         `json:"value,omitempty"` // Table II metric (normalised so higher is better)
	Raw      float64         `json:"raw,omitempty"`   // the metric as reported
	Status   string          `json:"status"`          // OK / FL / ABT
}

// Label renders the settings compactly.
func (p Point) Label() string {
	if p.Pattern != "" {
		return p.Pattern
	}
	if len(p.Settings) == 0 {
		return "(no knobs)"
	}
	var s []string
	for _, k := range knobs {
		if on, ok := p.Settings[k.name]; ok {
			state := "-"
			if on {
				state = "+"
			}
			s = append(s, state+k.name)
		}
	}
	return strings.Join(s, " ")
}

// Report is the outcome of one tuning run.
type Report struct {
	Benchmark string  `json:"benchmark"`
	Device    string  `json:"device"`
	Toolchain string  `json:"toolchain"`
	Metric    string  `json:"metric"`
	Space     string  `json:"space"`  // "knobs" or "pattern"
	Points    []Point `json:"points"` // sorted best-first; failed points at the end
}

// Best returns the winning point (the first OK point).
func (r *Report) Best() (Point, bool) {
	for _, p := range r.Points {
		if p.Status == "OK" {
			return p, true
		}
	}
	return Point{}, false
}

// runner runs one benchmark cell, with core.Runner's signature: the
// caller's runner decides where a candidate runs (a fresh driver, or the
// scheduler's pool and cache).
type runner = func(a *arch.Device, toolchain string, spec bench.Spec, cfg bench.Config) (*bench.Result, error)

// Tune sweeps the benchmark's knob space on one device with the given
// toolchain, every candidate through run, and returns every measured
// point, best first. Texture memory is skipped as a candidate on devices
// without a texture cache.
func Tune(run runner, toolchain string, a *arch.Device, benchName string, scale int) (*Report, error) {
	names := RelevantKnobs(benchName)
	var cands []Point
	for mask := 0; mask < 1<<len(names); mask++ {
		p := Point{Settings: map[string]bool{}, Config: bench.Config{Scale: scale, UnrollB: true}}
		for i, name := range names {
			p.Settings[name] = mask&(1<<i) != 0
		}
		for _, k := range knobs {
			if on, ok := p.Settings[k.name]; ok {
				k.set(&p.Config, on)
			}
		}
		if p.Config.UseTexture && !a.HasTextureCache {
			continue // no texture path on this device
		}
		cands = append(cands, p)
	}
	return sweep(run, toolchain, a, benchName, "knobs", cands)
}

// TunePattern sweeps a pattern-portable benchmark's schedule space
// (bench.PatternSpace) on one device, every candidate through run, and
// returns every measured point, best first.
func TunePattern(run runner, toolchain string, a *arch.Device, benchName string, scale int) (*Report, error) {
	space := bench.PatternSpace(benchName)
	if space == nil {
		return nil, fmt.Errorf("tune: benchmark %q has no pattern program", benchName)
	}
	slices.Sort(space) // ties in the report break by mangle
	cands := make([]Point, len(space))
	for i, m := range space {
		cands[i] = Point{Pattern: m, Config: bench.Config{Scale: scale, Pattern: m}}
	}
	return sweep(run, toolchain, a, benchName, "pattern", cands)
}

// fanOut is how many candidates of one sweep run at a time.
const fanOut = 4

// sweep measures every candidate through run, fanOut at a time, and
// reports them best first: OK before failed, then Value descending, ties in
// candidate order. The simulator is a deterministic function of the cell,
// so the report does not depend on which candidate finishes first.
func sweep(run runner, toolchain string, a *arch.Device, benchName, space string, cands []Point) (*Report, error) {
	spec, err := bench.SpecByName(benchName)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(cands))
	var wg sync.WaitGroup
	sem := make(chan struct{}, fanOut)
	for i := range cands {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			p := &cands[i]
			res, err := run(a, toolchain, spec, p.Config)
			if err != nil {
				errs[i] = err
				return
			}
			p.Status, p.Raw = res.Status(), res.Value
			if res.Err == nil {
				p.Value = res.Value
				if bench.LowerIsBetter(spec.Metric) && res.Value > 0 {
					p.Value = 1 / res.Value
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		pi, pj := cands[i], cands[j]
		if (pi.Status == "OK") != (pj.Status == "OK") {
			return pi.Status == "OK"
		}
		return pi.Value > pj.Value
	})
	return &Report{Benchmark: benchName, Device: a.Name, Toolchain: toolchain, Metric: spec.Metric, Space: space, Points: cands}, nil
}
