package perfmodel

import (
	"gpucmp/internal/arch"
)

// estimateBytesPerElement is the rough memory traffic per element assumed
// for element-rate metrics (MElements/sec, MPixels/sec, MPoints/sec): one
// word read and one word written.
const estimateBytesPerElement = 8.0

// rateUnits is Table II's metric table: each rate metric and the divisor
// that turns work per second into its unit. The time-valued metric, "sec",
// is not a rate.
var rateUnits = map[string]float64{
	"GFlops/sec":    1e9,
	"GB/sec":        1e9,
	"MElements/sec": 1e6,
	"MPixels/sec":   1e6,
	"MPoints/sec":   1e6,
}

// RateUnit returns the divisor that turns a rate metric's work per second
// into its unit. ok is false for a time-valued metric, whose number is the
// seconds themselves and where a lower number is better.
func RateUnit(metric string) (unit float64, ok bool) {
	unit, ok = rateUnits[metric]
	return unit, ok
}

// Estimate returns a trace-free analytical estimate of a benchmark's
// reported metric on a device: the sustained roofline rate for the
// metric's family, derated by the same calibrated fractions the full model
// uses. It is the graceful-degradation fallback the server serves (marked
// Degraded) when the simulation path is unavailable — a breaker is open or
// the job keeps hitting the watchdog — so it trades per-benchmark accuracy
// for availability.
//
// ok is false for metrics that cannot be estimated without a problem size
// (the time-valued "sec" benchmarks): callers should fall through to the
// next rung of the degradation ladder.
func Estimate(a *arch.Device, tc *Toolchain, metric string) (value float64, ok bool) {
	unit, ok := RateUnit(metric)
	if !ok {
		// Time-valued metrics depend on the problem size, which an
		// analytical estimate has no access to.
		return 0, false
	}
	t := a.Timing
	sustainedBW := a.TheoreticalPeakBandwidth() * t.SustainedBWFraction * tc.bwFactor(a.Microarch)
	switch metric {
	case "GFlops/sec":
		return a.TheoreticalPeakFLOPS() * t.SustainedIssueFraction, true
	case "GB/sec":
		return sustainedBW, true
	default:
		// Every other rate counts elements: assume a streaming,
		// bandwidth-bound kernel.
		return sustainedBW * 1e9 / estimateBytesPerElement / unit, true
	}
}
