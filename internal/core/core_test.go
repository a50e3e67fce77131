package core

import (
	"math"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

func TestPRMetric(t *testing.T) {
	// Eq. (1) for throughput metrics.
	if got := PR(90, 100, false); got != 0.9 {
		t.Errorf("PR = %g, want 0.9", got)
	}
	// Time metrics invert so PR > 1 still means OpenCL wins.
	if got := PR(0.5, 1.0, true); got != 2.0 {
		t.Errorf("time PR = %g, want 2", got)
	}
	if !math.IsInf(PR(1, 0, false), 1) || !math.IsInf(PR(0, 1, true), 1) {
		t.Error("degenerate PRs should be +Inf")
	}
	if !Similar(1.05) || !Similar(0.95) || Similar(1.2) || Similar(0.85) {
		t.Error("similarity band wrong")
	}
}

// TestComparisonStringAndCompare covers the Comparison plumbing.
func TestComparisonStringAndCompare(t *testing.T) {
	spec, _ := bench.SpecByName("TranP")
	c, err := CompareNative(Direct, arch.GTX480(), spec, 16)
	if err != nil {
		t.Fatal(err)
	}
	s := c.String()
	for _, want := range []string{"TranP", "PR="} {
		if !strings.Contains(s, want) {
			t.Errorf("comparison string missing %q: %s", want, s)
		}
	}
	if c.CUDA == nil || c.OpenCL == nil || c.PR <= 0 {
		t.Error("comparison incomplete")
	}
}

// TestGridTailsStayInBounds runs the three benchmarks whose kernels have no
// bounds guard at scales whose sizes are not a multiple of the block, on
// every device and toolchain. DeviceMemory and MaxFlops must launch whole
// blocks only, and BFS must size the arrays its tail work-items load to the
// grid: otherwise the tail reads and writes the next allocation, which the
// race detector reports when another compute unit writes it.
func TestGridTailsStayInBounds(t *testing.T) {
	for _, name := range []string{"BFS", "DeviceMemory", "MaxFlops"} {
		spec, err := bench.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []int{17, 20} {
			for _, a := range arch.All() {
				for _, toolchain := range bench.Toolchains(a) {
					r, err := Direct(a, toolchain.Name, spec, bench.Config{Scale: scale})
					if err != nil {
						t.Fatalf("%s/%s/%s scale %d: %v", name, a.Name, toolchain.Name, scale, err)
					}
					if r.Err != nil || !r.Correct {
						t.Errorf("%s/%s/%s scale %d: err %v, correct %v", name, a.Name, toolchain.Name, scale, r.Err, r.Correct)
					}
				}
			}
		}
	}
}

// TestDeterministicSimulation: the parallel block executor must produce
// identical traces and times across repeated runs.
func TestDeterministicSimulation(t *testing.T) {
	run := func() (int64, float64) {
		spec, _ := bench.SpecByName("FFT")
		d, err := bench.NewDriver("opencl", arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Run(d, bench.Config{Scale: 8})
		if err != nil || r.Err != nil {
			t.Fatal(err, r.Err)
		}
		return r.Traces[0].Dyn.Total, r.KernelSeconds
	}
	d1, t1 := run()
	d2, t2 := run()
	if d1 != d2 || t1 != t2 {
		t.Errorf("simulation not deterministic: (%d, %g) vs (%d, %g)", d1, t1, d2, t2)
	}
}
