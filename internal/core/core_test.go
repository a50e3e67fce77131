package core

import (
	"math"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/ptx"
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

// TestPeakFractions verifies the Fig. 1 / Fig. 2 calibration targets
// end-to-end through the benchmarks (not just the analytic model): OpenCL
// reaches about 68.6% / 87.7% of TP_BW and beats CUDA by about 8.5% / 2.4%;
// both toolchains reach the same achieved FLOPS.
func TestPeakFractions(t *testing.T) {
	bw280, err := PeakBandwidth(Direct, arch.GTX280(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if f := bw280.FractionOpenCL(); math.Abs(f-0.686) > 0.05 {
		t.Errorf("GTX280 OpenCL BW fraction = %.3f, want ~0.686", f)
	}
	if r := bw280.OpenCL / bw280.CUDA; math.Abs(r-1.085) > 0.03 {
		t.Errorf("GTX280 OpenCL/CUDA BW ratio = %.3f, want ~1.085", r)
	}
	bw480, err := PeakBandwidth(Direct, arch.GTX480(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if f := bw480.FractionOpenCL(); math.Abs(f-0.877) > 0.05 {
		t.Errorf("GTX480 OpenCL BW fraction = %.3f, want ~0.877", f)
	}
	if r := bw480.OpenCL / bw480.CUDA; math.Abs(r-1.024) > 0.03 {
		t.Errorf("GTX480 OpenCL/CUDA BW ratio = %.3f, want ~1.024", r)
	}

	fl280, err := PeakFlops(Direct, arch.GTX280(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if f := fl280.FractionOpenCL(); math.Abs(f-0.715) > 0.06 {
		t.Errorf("GTX280 FLOPS fraction = %.3f, want ~0.715", f)
	}
	fl480, err := PeakFlops(Direct, arch.GTX480(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if f := fl480.FractionOpenCL(); math.Abs(f-0.977) > 0.08 {
		t.Errorf("GTX480 FLOPS fraction = %.3f, want ~0.977", f)
	}
	// "OpenCL obtains almost the same AP_FLOPS as CUDA".
	for _, p := range []PeakResult{fl280, fl480} {
		if r := p.OpenCL / p.CUDA; math.Abs(r-1) > 0.05 {
			t.Errorf("%s: FLOPS ratio = %.3f, want ~1", p.Device, r)
		}
	}
}

// TestFig3Shape checks the headline observations of the PR comparison:
// the unmodified OpenCL Sobel beats the CUDA one on GTX280 (the constant
// memory outlier) but not on GTX480 (Fermi's cache equalises them), and
// CUDA leads most other benchmarks.
func TestFig3Shape(t *testing.T) {
	rows280, err := NativePRSeries(Direct, arch.GTX280(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rows480, err := NativePRSeries(Direct, arch.GTX480(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pr := func(rows []*Comparison, name string) float64 {
		for _, c := range rows {
			if c.Benchmark == name {
				return c.PR
			}
		}
		t.Fatalf("missing %s", name)
		return 0
	}
	if pr(rows280, "Sobel") <= 1 {
		t.Errorf("GTX280 Sobel PR = %.3f, want > 1 (OpenCL's constant filter wins on GT200)", pr(rows280, "Sobel"))
	}
	if pr(rows480, "Sobel") >= 1 {
		t.Errorf("GTX480 Sobel PR = %.3f, want < 1 (Fermi's cache removes the advantage)", pr(rows480, "Sobel"))
	}
	for _, rows := range [][]*Comparison{rows280, rows480} {
		if pr(rows, "FFT") >= 1 {
			t.Errorf("FFT PR = %.3f on %s, want < 1 (front-end gap)", pr(rows, "FFT"), rows[0].Device)
		}
		if pr(rows, "BFS") >= 1 {
			t.Errorf("BFS PR = %.3f on %s, want < 1 (launch overhead)", pr(rows, "BFS"), rows[0].Device)
		}
	}
	if len(rows280) != 14 || len(rows480) != 14 {
		t.Errorf("Fig. 3 should have 14 benchmarks per device")
	}
}

// TestTextureStudies checks Fig. 4 (texture removal hurts the CUDA MD and
// SPMV) and Fig. 5 (after removal the toolchains are much closer).
func TestTextureStudies(t *testing.T) {
	for _, a := range nvidia() {
		impacts, err := TextureStudy(Direct, a, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range impacts {
			if im.Ratio() >= 1.0 {
				t.Errorf("%s on %s: removing texture should not speed it up (ratio %.3f)",
					im.Benchmark, im.Device, im.Ratio())
			}
		}
	}
	// Fig. 5: with texture removed from both, MD and SPMV land near parity
	// (the paper's "similar performance" conclusion).
	prs, err := TexturePRStudy(Direct, arch.GTX280(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range prs {
		if c.PR < 0.55 || c.PR > 1.45 {
			t.Errorf("Fig. 5 %s PR = %.3f, want near parity", c.Benchmark, c.PR)
		}
	}
}

// TestUnrollStudies checks Fig. 6/7 directions: the pragma at point a does
// not hurt CUDA, and the OpenCL build is the slower side of every combo.
func TestUnrollStudies(t *testing.T) {
	u, err := UnrollStudyCUDA(Direct, arch.GTX480(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if u.Ratio() > 1.02 {
		t.Errorf("Fig. 6: removing the pragma should not speed CUDA up (ratio %.3f)", u.Ratio())
	}
	combos, err := UnrollCombos(Direct, arch.GTX480(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 2 {
		t.Fatalf("want 2 combos, got %d", len(combos))
	}
	for _, c := range combos {
		if c.PR >= 1.1 {
			t.Errorf("Fig. 7 %s: PR = %.3f, expected OpenCL at or below CUDA", c.Label, c.PR)
		}
	}
}

// TestConstantStudy checks Fig. 8: constant memory matters on GT200 and is
// nearly irrelevant on Fermi.
func TestConstantStudy(t *testing.T) {
	c280, err := ConstantStudy(Direct, arch.GTX280(), 2)
	if err != nil {
		t.Fatal(err)
	}
	c480, err := ConstantStudy(Direct, arch.GTX480(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if c280.Speedup() < 1.1 {
		t.Errorf("GTX280 constant-memory speedup = %.3f, want > 1.1", c280.Speedup())
	}
	if math.Abs(c480.Speedup()-1) > 0.1 {
		t.Errorf("GTX480 constant-memory speedup = %.3f, want ~1 (Fermi L1)", c480.Speedup())
	}
	if c280.Speedup() <= c480.Speedup() {
		t.Error("the constant cache must matter more on GT200 than on Fermi")
	}
}

// TestTableVShape checks the front-end instruction-census contrasts of
// Table V on the FFT forward kernel.
func TestTableVShape(t *testing.T) {
	cu, cl, report, err := PTXStudy()
	if err != nil {
		t.Fatal(err)
	}
	// CUDA is mov-heavy; OpenCL is shift/flow-control-heavy.
	if cu.Get(ptx.OpMov, ptx.SpaceNone) <= cl.Get(ptx.OpMov, ptx.SpaceNone) {
		t.Errorf("mov: cuda %d should exceed opencl %d",
			cu.Get(ptx.OpMov, ptx.SpaceNone), cl.Get(ptx.OpMov, ptx.SpaceNone))
	}
	if cl.Class(ptx.ClassLogicShift) <= cu.Class(ptx.ClassLogicShift) {
		t.Errorf("logic/shift: opencl %d should exceed cuda %d",
			cl.Class(ptx.ClassLogicShift), cu.Class(ptx.ClassLogicShift))
	}
	if cl.Class(ptx.ClassFlowControl) <= cu.Class(ptx.ClassFlowControl) {
		t.Errorf("flow control: opencl %d should exceed cuda %d",
			cl.Class(ptx.ClassFlowControl), cu.Class(ptx.ClassFlowControl))
	}
	// Argument spaces: ld.param for CUDA, ld.const for OpenCL.
	if cu.Get(ptx.OpLd, ptx.SpaceParam) == 0 || cu.Get(ptx.OpLd, ptx.SpaceConst) != 0 {
		t.Error("CUDA arguments should come from the param space")
	}
	if cl.Get(ptx.OpLd, ptx.SpaceConst) == 0 || cl.Get(ptx.OpLd, ptx.SpaceParam) != 0 {
		t.Error("OpenCL arguments should come from the constant bank")
	}
	// Barriers are source-level and identical.
	if cu.Get(ptx.OpBar, ptx.SpaceNone) != cl.Get(ptx.OpBar, ptx.SpaceNone) {
		t.Error("bar counts must match")
	}
	// Both kernels still use per-thread local staging.
	for _, s := range []*ptx.Stats{cu, cl} {
		if s.Get(ptx.OpLd, ptx.SpaceLocal) == 0 || s.Get(ptx.OpSt, ptx.SpaceLocal) == 0 {
			t.Error("FFT must stage through local memory (Table V ld.local/st.local rows)")
		}
	}
	for _, want := range []string{"Arithmetic", "SUB-TOTAL", "TOTAL", "CUDA", "OpenCL"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestDynamicGlobalTrafficEqual: the paper's crucial observation that "all
// time-consuming instructions such as ld.global and st.global are exactly
// the same" — true dynamically for the FFT under both toolchains.
func TestDynamicGlobalTrafficEqual(t *testing.T) {
	spec, _ := bench.SpecByName("FFT")
	var counts [2]int64
	for i, tc := range []string{"cuda", "opencl"} {
		d, err := bench.NewDriver(tc, arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Run(d, bench.Config{Scale: 16})
		if err != nil || r.Err != nil {
			t.Fatal(err, r.Err)
		}
		for _, tr := range r.Traces {
			counts[i] += tr.Dyn.Get(ptx.OpLd, ptx.SpaceGlobal) + tr.Dyn.Get(ptx.OpSt, ptx.SpaceGlobal)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("dynamic global traffic differs: cuda %d, opencl %d", counts[0], counts[1])
	}
}

// TestPortabilityMatchesTableVI checks the status grid of Table VI.
func TestPortabilityMatchesTableVI(t *testing.T) {
	f, _ := FigureByID("tableVI")
	data, err := f.Study(Direct, f.Devices(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cells := data.([]PortabilityCell)
	status := make(map[[2]string]string)
	for _, c := range cells {
		status[[2]string{c.Device, c.Benchmark}] = c.Status
	}
	expect := func(dev, bench, want string) {
		if got := status[[2]string{dev, bench}]; got != want {
			t.Errorf("%s / %s: status %s, want %s", dev, bench, got, want)
		}
	}
	hd, cpu, cell := arch.HD5870().Name, arch.Intel920().Name, arch.CellBE().Name
	expect(hd, "RdxS", "FL")
	expect(cpu, "RdxS", "FL")
	for _, b := range []string{"FFT", "DXTC", "RdxS", "STNW"} {
		expect(cell, b, "ABT")
	}
	for _, b := range []string{"BFS", "Sobel", "TranP", "Reduce", "MD", "SPMV", "St2D", "Scan", "MxM", "FDTD"} {
		expect(hd, b, "OK")
		expect(cpu, b, "OK")
		expect(cell, b, "OK")
	}
	if len(cells) != 3*14 {
		t.Errorf("Table VI should have 42 cells, got %d", len(cells))
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

// TestEfficiencyStudy: peak-normalised fractions are in (0,1] where the
// run succeeded, and the portability score quantifies the Section V
// performance-portability gap.
func TestEfficiencyStudy(t *testing.T) {
	effs, err := EfficiencyStudy(Direct, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(effs) == 0 {
		t.Fatal("no efficiency rows")
	}
	byBench := map[string]int{}
	for _, e := range effs {
		byBench[e.Benchmark]++
		if e.Status == "OK" {
			if e.Fraction <= 0 || e.Fraction > 1 {
				t.Errorf("%s on %s: fraction %.3f out of (0,1]", e.Benchmark, e.Device, e.Fraction)
			}
		}
	}
	// Only the GFlops/GB-metric benchmarks are normalisable.
	for _, name := range []string{"TranP", "Reduce", "FFT", "MD", "SPMV", "MxM"} {
		if byBench[name] != 5 {
			t.Errorf("%s should have 5 device rows, got %d", name, byBench[name])
		}
	}
	if byBench["Sobel"] != 0 || byBench["BFS"] != 0 {
		t.Error("time-metric benchmarks have no peak normalisation")
	}

	score := PortabilityScore(effs, "MxM")
	if math.IsNaN(score) || score <= 0 || score > 1 {
		t.Errorf("MxM portability score = %.3f, want in (0,1]", score)
	}
	if !math.IsNaN(PortabilityScore(effs, "nothing")) {
		t.Error("unknown benchmark should score NaN")
	}
	// RdxS fails on two devices and aborts on one: its score uses only the
	// OK rows.
	if s := PortabilityScore(effs, "RdxS"); !math.IsNaN(s) && (s <= 0 || s > 1) {
		t.Errorf("RdxS score = %.3f", s)
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
