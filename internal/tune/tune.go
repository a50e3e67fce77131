// Package tune implements the auto-tuner the paper names as future work in
// its conclusion: "we would like to develop an auto-tuner to adapt
// general-purpose OpenCL programs to all available specific platforms to
// fully exploit the hardware."
//
// The tuner enumerates the implementation variants a programmer controls in
// step 4 of the fair-comparison pipeline (texture memory, constant memory,
// unroll-pragma placement, warp-oriented kernels), measures every variant
// on the target device, and reports the configuration that maximises the
// benchmark's Table II metric. Because the knobs interact with
// architecture features (texture caches, constant caches, wavefront
// widths), the winning variant differs per device — which is exactly why
// the paper argues portable code needs an auto-tuner.
package tune

import (
	"fmt"
	"sort"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

// Knob is one tunable implementation choice.
type Knob int

const (
	KnobTexture Knob = iota
	KnobConstant
	KnobUnrollA
	KnobUnrollB
	KnobVectorKernel
	KnobNaiveTranspose
)

// String names the knob.
func (k Knob) String() string {
	switch k {
	case KnobTexture:
		return "texture-memory"
	case KnobConstant:
		return "constant-memory"
	case KnobUnrollA:
		return "unroll@a"
	case KnobUnrollB:
		return "unroll@b"
	case KnobVectorKernel:
		return "warp-per-row"
	case KnobNaiveTranspose:
		return "naive-transpose"
	default:
		return fmt.Sprintf("knob(%d)", int(k))
	}
}

// MarshalText renders the knob by name, so a Point's Settings map JSON-
// encodes with readable keys.
func (k Knob) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a knob name (the inverse of MarshalText).
func (k *Knob) UnmarshalText(text []byte) error {
	for _, c := range []Knob{KnobTexture, KnobConstant, KnobUnrollA, KnobUnrollB, KnobVectorKernel, KnobNaiveTranspose} {
		if c.String() == string(text) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("tune: unknown knob %q", text)
}

// RelevantKnobs returns the variant dimensions a benchmark actually has.
func RelevantKnobs(benchName string) []Knob {
	switch benchName {
	case "MD":
		return []Knob{KnobTexture}
	case "SPMV":
		return []Knob{KnobTexture, KnobVectorKernel}
	case "Sobel":
		return []Knob{KnobConstant}
	case "FDTD":
		return []Knob{KnobUnrollA, KnobUnrollB}
	case "TranP":
		return []Knob{KnobNaiveTranspose}
	default:
		return nil
	}
}

func applyKnob(cfg *bench.Config, k Knob, on bool) {
	switch k {
	case KnobTexture:
		cfg.UseTexture = on
	case KnobConstant:
		cfg.UseConstant = on
	case KnobUnrollA:
		cfg.UnrollA = on
	case KnobUnrollB:
		cfg.UnrollB = on
	case KnobVectorKernel:
		cfg.VectorSPMV = on
	case KnobNaiveTranspose:
		cfg.NaiveTranspose = on
	}
}

// Point is one evaluated configuration: either a knob assignment (Settings)
// or a pattern schedule (Pattern), never both.
type Point struct {
	Settings map[Knob]bool `json:"settings,omitempty"`
	Pattern  string        `json:"pattern,omitempty"` // schedule mangle (pattern space)
	Config   bench.Config  `json:"config"`
	Value    float64       `json:"value,omitempty"` // Table II metric (normalised so higher is better)
	Raw      float64       `json:"raw,omitempty"`   // the metric as reported
	Status   string        `json:"status"`          // OK / FL / ABT
}

// Label renders the settings compactly.
func (p Point) Label() string {
	if p.Pattern != "" {
		return p.Pattern
	}
	if len(p.Settings) == 0 {
		return "(no knobs)"
	}
	keys := make([]Knob, 0, len(p.Settings))
	for k := range p.Settings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	s := ""
	for _, k := range keys {
		state := "-"
		if p.Settings[k] {
			state = "+"
		}
		if s != "" {
			s += " "
		}
		s += state + k.String()
	}
	return s
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

// measure runs one candidate configuration through run.
func measure(run runner, toolchain string, a *arch.Device, spec bench.Spec, cfg bench.Config) (Point, error) {
	res, err := run(a, toolchain, spec, cfg)
	if err != nil {
		return Point{}, err
	}
	p := Point{Pattern: cfg.Pattern, Config: cfg, Status: res.Status(), Raw: res.Value}
	if res.Err == nil {
		p.Value = res.Value
		if spec.LowerIsBetter && res.Value > 0 {
			p.Value = 1 / res.Value
		}
	}
	return p, nil
}

// Tune sweeps the benchmark's variant space on one device with the given
// toolchain, every candidate through run, and returns every measured
// point, best first. Texture memory is skipped as a candidate on devices
// without a texture cache.
func Tune(run runner, toolchain string, a *arch.Device, benchName string, scale int) (*Report, error) {
	spec, err := bench.SpecByName(benchName)
	if err != nil {
		return nil, err
	}
	knobs := RelevantKnobs(benchName)
	rep := &Report{Benchmark: benchName, Device: a.Name, Toolchain: toolchain, Metric: spec.Metric, Space: "knobs"}

	n := 1 << uint(len(knobs))
	for mask := 0; mask < n; mask++ {
		cfg := bench.Config{Scale: scale, UnrollB: true}
		settings := map[Knob]bool{}
		skip := false
		for i, k := range knobs {
			on := mask&(1<<uint(i)) != 0
			if k == KnobTexture && on && !a.HasTextureCache {
				skip = true // no texture path on this device
			}
			settings[k] = on
			applyKnob(&cfg, k, on)
		}
		if skip {
			continue
		}
		p, err := measure(run, toolchain, a, spec, cfg)
		if err != nil {
			return nil, err
		}
		p.Settings = settings
		rep.Points = append(rep.Points, p)
	}
	sort.SliceStable(rep.Points, func(i, j int) bool {
		pi, pj := rep.Points[i], rep.Points[j]
		if (pi.Status == "OK") != (pj.Status == "OK") {
			return pi.Status == "OK"
		}
		return pi.Value > pj.Value
	})
	return rep, nil
}
