package core

import (
	"math"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/stats"
)

// Efficiency quantifies Section V's performance-portability discussion:
// raw Table VI numbers are incomparable across devices, so this study
// normalises each run by its device's relevant theoretical peak
// (TP_FLOPS for compute metrics, TP_BW for bandwidth metrics) — the same
// normalisation the paper applies when it reports "X% of peak".
type Efficiency struct {
	Benchmark string
	Device    string
	Value     float64 // raw Table II metric
	Peak      float64 // the device peak the metric is measured against
	Fraction  float64 // Value normalised by Peak (0 when not applicable)
	Status    string
}

// peakFor picks the peak matching a benchmark metric. Time-valued metrics
// have no natural peak and report zero.
func peakFor(a *arch.Device, metric string) float64 {
	switch metric {
	case "GFlops/sec":
		return a.TheoreticalPeakFLOPS()
	case "GB/sec":
		return a.TheoreticalPeakBandwidth()
	default:
		return 0
	}
}

// EfficiencyStudy runs the peak-normalisable benchmarks through OpenCL on
// every device and reports achieved peak fractions — the quantitative form
// of "OpenCL's portability does not extend to performance portability".
func EfficiencyStudy(run Runner, scale int) ([]Efficiency, error) {
	var out []Efficiency
	for _, a := range arch.All() {
		for _, spec := range Fig3Benchmarks() {
			peak := peakFor(a, spec.Metric)
			if peak == 0 {
				continue
			}
			cfg := bench.NativeConfig("opencl")
			cfg.Scale = scale
			r, err := run(a, "opencl", spec, cfg)
			if err != nil {
				return nil, err
			}
			e := Efficiency{
				Benchmark: spec.Name, Device: a.Name,
				Peak: peak, Status: r.Status(),
			}
			if r.Err == nil && r.Correct {
				e.Value = r.Value
				e.Fraction = r.Value / peak
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// PortabilityScore summarises one benchmark's performance portability: the
// geometric mean of its peak fractions across devices, divided by its best
// fraction. 1.0 means the kernel exploits every device equally well;
// values near 0 mean it is tuned for one architecture (the situation the
// paper's proposed auto-tuner addresses).
func PortabilityScore(effs []Efficiency, benchmark string) float64 {
	var fracs []float64
	best := 0.0
	for _, e := range effs {
		if e.Benchmark != benchmark || e.Status != "OK" {
			continue
		}
		fracs = append(fracs, e.Fraction)
		if e.Fraction > best {
			best = e.Fraction
		}
	}
	if len(fracs) == 0 || best == 0 {
		return math.NaN()
	}
	return stats.GeoMean(fracs) / best
}
