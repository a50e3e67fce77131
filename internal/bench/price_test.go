package bench

import (
	"math"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/perfmodel"
)

// TestPriceReproducesEveryValue: every registered metric is "sec" or in
// perfmodel's metric table, and on every benchmark, device and toolchain
// re-pricing a result under the toolchain that ran it reproduces all four
// of its numbers bit for bit, copies included.
func TestPriceReproducesEveryValue(t *testing.T) {
	for _, spec := range Registry() {
		if _, rate := perfmodel.RateUnit(spec.Metric); !rate && spec.Metric != "sec" {
			t.Errorf("%s: metric %q is neither sec nor a known rate", spec.Name, spec.Metric)
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
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
				again := spec.Price(res, a, tc)
				if !same(again.Value, res.Value) || !same(again.KernelSeconds, res.KernelSeconds) ||
					!same(again.TransferSeconds, res.TransferSeconds) || !same(again.EndToEndSeconds, res.EndToEndSeconds) {
					t.Errorf("%s: re-priced to %v %s in %v s kernel, %v s transfer, %v s end to end; ran as %v in %v, %v, %v s",
						cell, again.Value, res.Metric, again.KernelSeconds, again.TransferSeconds, again.EndToEndSeconds,
						res.Value, res.KernelSeconds, res.TransferSeconds, res.EndToEndSeconds)
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
// all of it launch overhead over BFS's two launches per level, and the
// same copies cost less too; the copy names CUDA, and the run itself is
// left as it was.
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
	if cu.Toolchain != "cuda" {
		t.Errorf("re-priced under CUDA: toolchain %q", cu.Toolchain)
	}
	if !(cu.TransferSeconds > 0 && cu.TransferSeconds < res.TransferSeconds) ||
		!(cu.EndToEndSeconds > 0 && cu.EndToEndSeconds < res.EndToEndSeconds) {
		t.Errorf("under CUDA costs BFS copies for %v s and ends after %v s, under OpenCL %v s and %v s",
			cu.TransferSeconds, cu.EndToEndSeconds, res.TransferSeconds, res.EndToEndSeconds)
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
