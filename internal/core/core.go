// Package core implements the paper's methodology as a library: the
// normalised PerformanceRatio metric of Eq. (1), the similarity band used
// throughout the evaluation, the experiment harness that regenerates every
// figure and table, and the eight-step fair-comparison pipeline of
// Section IV-C (Fig. 9).
package core

import (
	"fmt"
	"math"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

// PR computes Eq. (1): Performance_OpenCL / Performance_CUDA. For
// time-valued metrics (seconds, lower is better) the ratio is inverted so
// that PR > 1 always means OpenCL is faster.
func PR(opencl, cuda float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		if opencl == 0 {
			return math.Inf(1)
		}
		return cuda / opencl
	}
	if cuda == 0 {
		return math.Inf(1)
	}
	return opencl / cuda
}

// Similar implements the paper's band: |1 - PR| < 0.1 means the two
// programming models perform alike.
func Similar(pr float64) bool { return math.Abs(1-pr) < 0.1 }

// Comparison is one benchmark compared across the two toolchains on one
// device.
type Comparison struct {
	Benchmark string        `json:"benchmark"`
	Device    string        `json:"device"`
	Metric    string        `json:"metric"`
	CUDA      *bench.Result `json:"cuda"`
	OpenCL    *bench.Result `json:"opencl"`
	PR        float64       `json:"pr"`
}

// String renders one row of the Fig. 3 data.
func (c *Comparison) String() string {
	return fmt.Sprintf("%-8s %-16s cuda=%.4g opencl=%.4g %s  PR=%.3f",
		c.Benchmark, c.Device, c.CUDA.Value, c.OpenCL.Value, c.Metric, c.PR)
}

// Runner executes one experiment cell: a benchmark with one toolchain and
// configuration on one device. Direct is the in-process implementation;
// internal/server wires the study functions to a scheduler-backed Runner
// so every cell is cached, deduplicated and run on the worker pool.
type Runner func(a *arch.Device, toolchain string, spec bench.Spec, cfg bench.Config) (*bench.Result, error)

// Direct runs the cell on a freshly opened driver in the calling
// goroutine.
func Direct(a *arch.Device, toolchain string, spec bench.Spec, cfg bench.Config) (*bench.Result, error) {
	d, err := bench.NewDriver(toolchain, a)
	if err != nil {
		return nil, err
	}
	return spec.Run(d, cfg)
}

// Compare runs one benchmark with both toolchains on one device, using
// per-toolchain configurations (pass bench.NativeConfig values for the
// paper's unmodified Fig. 3 comparison, or identical configs for a
// controlled experiment).
func Compare(run Runner, a *arch.Device, spec bench.Spec, cfgCUDA, cfgCL bench.Config) (*Comparison, error) {
	rc, err := run(a, "cuda", spec, cfgCUDA)
	if err != nil {
		return nil, err
	}
	if rc.Err != nil {
		return nil, fmt.Errorf("core: %s: CUDA run aborted: %w", spec.Name, rc.Err)
	}
	ro, err := run(a, "opencl", spec, cfgCL)
	if err != nil {
		return nil, err
	}
	if ro.Err != nil {
		return nil, fmt.Errorf("core: %s: OpenCL run aborted: %w", spec.Name, ro.Err)
	}
	return &Comparison{
		Benchmark: spec.Name,
		Device:    a.Name,
		Metric:    spec.Metric,
		CUDA:      rc,
		OpenCL:    ro,
		PR:        PR(ro.Value, rc.Value, bench.LowerIsBetter(spec.Metric)),
	}, nil
}

// CompareNative runs the paper's Fig. 3 comparison: each toolchain's
// native, unmodified implementation.
func CompareNative(run Runner, a *arch.Device, spec bench.Spec, scale int) (*Comparison, error) {
	cu := bench.NativeConfig("cuda")
	cu.Scale = scale
	cl := bench.NativeConfig("opencl")
	cl.Scale = scale
	return Compare(run, a, spec, cu, cl)
}
