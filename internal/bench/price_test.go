package bench

import (
	"math"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/perfmodel"
)

// TestPriceReproducesEveryValue: every registered metric is "sec" or in
// perfmodel's metric table, and on every benchmark, device and toolchain
// the priced kernel seconds are the driver's own clock bit for bit, and
// re-pricing a result under the toolchain that ran it changes no number.
func TestPriceReproducesEveryValue(t *testing.T) {
	for _, spec := range Registry() {
		if _, rate := perfmodel.RateUnit(spec.Metric); !rate && spec.Metric != "sec" {
			t.Errorf("%s: metric %q is neither sec nor a known rate", spec.Name, spec.Metric)
		}
	}
	for _, a := range arch.All() {
		for _, tc := range Toolchains(a) {
			for _, spec := range Registry() {
				d, err := tc.Open(a)
				if err != nil {
					t.Fatal(err)
				}
				res, err := spec.Run(d, testCfg(tc.Name, 16))
				if err != nil {
					t.Fatal(err)
				}
				if res.Err != nil {
					continue // the Cell/BE aborts (Table VI): nothing to price
				}
				cell := spec.Name + " on " + a.Name + " via " + tc.Name
				if math.Float64bits(res.KernelSeconds) != math.Float64bits(d.KernelTime()) {
					t.Errorf("%s: priced %v kernel seconds, the driver clocked %v", cell, res.KernelSeconds, d.KernelTime())
				}
				again := spec.Price(res, a, tc)
				if math.Float64bits(again.Value) != math.Float64bits(res.Value) ||
					math.Float64bits(again.KernelSeconds) != math.Float64bits(res.KernelSeconds) {
					t.Errorf("%s: re-priced to %v %s in %v s, ran as %v in %v s",
						cell, again.Value, res.Metric, again.KernelSeconds, res.Value, res.KernelSeconds)
				}
				if !(res.Value > 0) || math.IsInf(res.Value, 0) {
					t.Errorf("%s: Value %v %s", cell, res.Value, res.Metric)
				}
			}
		}
	}
}

// TestPriceUnderAnotherToolchain re-prices the OpenCL BFS run on the
// GTX480 with the CUDA runtime's costs: the same traces cost less, almost
// all of it launch overhead over BFS's two launches per level; the copy
// names CUDA and carries no host time, and the run itself is left as it
// was.
func TestPriceUnderAnotherToolchain(t *testing.T) {
	a := arch.GTX480()
	d, err := OpenCL().Open(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustSpec("BFS").Run(d, testCfg("opencl", 16))
	if err != nil || res.Err != nil {
		t.Fatal(err, res.Err)
	}
	kernel, traces := res.KernelSeconds, len(res.Traces)

	cu := mustSpec("BFS").Price(res, a, CUDA())
	if cu.Toolchain != "cuda" || cu.EndToEndSeconds != 0 || cu.TransferSeconds != 0 {
		t.Errorf("re-priced under CUDA: toolchain %q, end-to-end %v s, transfer %v s; want cuda and no host time",
			cu.Toolchain, cu.EndToEndSeconds, cu.TransferSeconds)
	}
	if cu.KernelSeconds >= res.KernelSeconds {
		t.Errorf("under CUDA costs BFS takes %v s, under OpenCL %v s", cu.KernelSeconds, res.KernelSeconds)
	}
	if cu.Value != cu.KernelSeconds {
		t.Errorf("BFS reports seconds: Value %v, KernelSeconds %v", cu.Value, cu.KernelSeconds)
	}
	launchGap := float64(traces) * (OpenCL().Costs.LaunchOverhead - CUDA().Costs.LaunchOverhead)
	if saved := res.KernelSeconds - cu.KernelSeconds; saved < launchGap/2 {
		t.Errorf("re-pricing saved %v s, less than half the %v s launch gap of %d launches", saved, launchGap, traces)
	}
	if len(cu.Traces) != traces || &cu.Traces[0] != &res.Traces[0] || cu.Work != res.Work || cu.Correct != res.Correct {
		t.Error("re-pricing changed the run's traces, work or correctness")
	}
	if res.KernelSeconds != kernel || res.Toolchain != "opencl" || res.EndToEndSeconds == 0 {
		t.Error("Price modified the result it was given")
	}
	t.Logf("BFS on %s: %.1f us under OpenCL costs, %.1f us under CUDA costs, %d launches",
		a.Name, res.KernelSeconds*1e6, cu.KernelSeconds*1e6, traces)
}
