package perfmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gpucmp/internal/arch"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// synthetic trace helpers ---------------------------------------------------

func flopsTrace(dev *arch.Device, warps int64, muls, mads int64) *sim.Trace {
	tr := &sim.Trace{
		Dyn:            ptx.NewStats(),
		Block:          sim.Dim3{X: 256, Y: 1},
		WarpWidth:      dev.SIMDWidth,
		Warps:          warps,
		ResidentGroups: 4,
	}
	mul := ptx.NewInstruction(ptx.OpMul)
	mad := ptx.NewInstruction(ptx.OpMad)
	tr.Dyn.Count(&mul, muls*warps)
	tr.Dyn.Count(&mad, mads*warps)
	return tr
}

func bwTrace(dev *arch.Device, loadTrans int64) *sim.Trace {
	tr := &sim.Trace{
		Dyn:            ptx.NewStats(),
		Block:          sim.Dim3{X: 256, Y: 1},
		WarpWidth:      dev.SIMDWidth,
		Warps:          loadTrans,
		ResidentGroups: 8,
	}
	ld := ptx.NewInstruction(ptx.OpLd)
	ld.Space = ptx.SpaceGlobal
	tr.Dyn.Count(&ld, loadTrans)
	tr.Mem.GlobalLoadTrans = loadTrans
	return tr
}

// TestAchievedPeakFLOPSFractions reproduces the calibration targets of
// Fig. 2: the MaxFlops kernel sustains ~71.5% of TP on GTX280 (interleaved
// mul+mad) and ~97.7% on GTX480 (mad only).
func TestAchievedPeakFLOPSFractions(t *testing.T) {
	tc := CUDAToolchain()

	g280 := arch.GTX280()
	// Interleaved mul+mad: equal counts; flops = warps*(32*1 + 32*2) per pair.
	const per = 10000
	tr := flopsTrace(g280, 64, per, per)
	b := KernelTime(g280, tc, tr)
	flops := float64(64*per) * 32 * (1 + 2)
	achieved := flops / (b.Total - b.Launch) / 1e9
	frac := achieved / g280.TheoreticalPeakFLOPS()
	if math.Abs(frac-0.715) > 0.02 {
		t.Errorf("GTX280 achieved fraction = %.3f, want ~0.715", frac)
	}

	g480 := arch.GTX480()
	tr = flopsTrace(g480, 64, 0, per)
	b = KernelTime(g480, tc, tr)
	flops = float64(64*per) * 32 * 2
	achieved = flops / (b.Total - b.Launch) / 1e9
	frac = achieved / g480.TheoreticalPeakFLOPS()
	if math.Abs(frac-0.977) > 0.02 {
		t.Errorf("GTX480 achieved fraction = %.3f, want ~0.977", frac)
	}
}

// TestAchievedBandwidthFractions reproduces Fig. 1: OpenCL sustains 68.6%
// and 87.7% of TP_BW, and beats CUDA by 8.5% / 2.4%.
func TestAchievedBandwidthFractions(t *testing.T) {
	for _, tt := range []struct {
		dev      *arch.Device
		wantFrac float64
		wantGap  float64 // OpenCL advantage over CUDA
	}{
		{arch.GTX280(), 0.686, 1.085},
		{arch.GTX480(), 0.877, 1.024},
	} {
		const trans = 4_000_000
		tr := bwTrace(tt.dev, trans)
		bytes := float64(trans) * float64(tt.dev.GlobalSegmentSize)

		bCL := KernelTime(tt.dev, OpenCLToolchain(), tr)
		clBW := bytes / (bCL.Total - bCL.Launch) / 1e9
		frac := clBW / tt.dev.TheoreticalPeakBandwidth()
		if math.Abs(frac-tt.wantFrac) > 0.02 {
			t.Errorf("%s: OpenCL BW fraction = %.3f, want ~%.3f", tt.dev.Name, frac, tt.wantFrac)
		}

		bCU := KernelTime(tt.dev, CUDAToolchain(), tr)
		cuBW := bytes / (bCU.Total - bCU.Launch) / 1e9
		gap := clBW / cuBW
		if math.Abs(gap-tt.wantGap) > 0.01 {
			t.Errorf("%s: OpenCL/CUDA BW ratio = %.3f, want ~%.3f", tt.dev.Name, gap, tt.wantGap)
		}
	}
}

// TestLaunchOverheadOrdering: OpenCL launches cost more than CUDA launches
// (the BFS analysis of Section IV-B4).
func TestLaunchOverheadOrdering(t *testing.T) {
	dev := arch.GTX280()
	tr := flopsTrace(dev, 1, 1, 1)
	cu := KernelTime(dev, CUDAToolchain(), tr)
	cl := KernelTime(dev, OpenCLToolchain(), tr)
	if cl.Launch <= cu.Launch {
		t.Errorf("OpenCL launch (%g) should exceed CUDA launch (%g)", cl.Launch, cu.Launch)
	}
}

// TestDualIssueOnlyGT200: the mul+mad pairing must not apply on Fermi.
func TestDualIssueOnlyGT200(t *testing.T) {
	tc := CUDAToolchain()
	g480 := arch.GTX480()
	interleaved := KernelTime(g480, tc, flopsTrace(g480, 64, 1000, 1000))
	madOnly := KernelTime(g480, tc, flopsTrace(g480, 64, 0, 2000))
	if interleaved.Issue < madOnly.Issue*0.99 {
		t.Errorf("Fermi should not co-issue mul+mad: interleaved %g < madonly %g",
			interleaved.Issue, madOnly.Issue)
	}
	g280 := arch.GTX280()
	inter280 := KernelTime(g280, tc, flopsTrace(g280, 64, 1000, 1000))
	madOnly280 := KernelTime(g280, tc, flopsTrace(g280, 64, 0, 2000))
	if inter280.Issue >= madOnly280.Issue {
		t.Errorf("GT200 mul+mad pairs should issue faster: %g vs %g",
			inter280.Issue, madOnly280.Issue)
	}
}

// TestLatencyHiding: more resident warps hide more latency.
func TestLatencyHiding(t *testing.T) {
	dev := arch.GTX280()
	tc := CUDAToolchain()
	tr := bwTrace(dev, 100000)
	tr.ResidentGroups = 8
	hi := KernelTime(dev, tc, tr)
	tr.ResidentGroups = 1
	lo := KernelTime(dev, tc, tr)
	if lo.Latency <= hi.Latency {
		t.Errorf("lower occupancy must expose more latency: %g vs %g", lo.Latency, hi.Latency)
	}
}

// TestBankConflictSerializationCosts: extra shared serialization raises the
// issue component.
func TestBankConflictSerialization(t *testing.T) {
	dev := arch.GTX280()
	tc := CUDAToolchain()
	tr := flopsTrace(dev, 64, 100, 100)
	base := KernelTime(dev, tc, tr).Issue
	tr.Mem.SharedAccesses = 1000
	tr.Mem.SharedSerial = 16000 // 16-way conflicts
	conflicted := KernelTime(dev, tc, tr).Issue
	if conflicted <= base {
		t.Errorf("bank conflicts should cost issue cycles: %g vs %g", conflicted, base)
	}
}

// TestTransferTimeOn checks the per-device link model: device bandwidth and
// DMA latency plus toolchain host-side cost, with the OpenCL derating.
func TestTransferTimeOn(t *testing.T) {
	gpu, cpu := arch.GTX480(), arch.Intel920()
	cuda, ocl := CUDAToolchain(), OpenCLToolchain()

	want := cuda.HostTransferLatency + gpu.Transfer.LatencyS +
		float64(1<<20)/(gpu.Transfer.PCIeGBps*1e9)
	if got := TransferTimeOn(gpu, cuda, 1<<20); math.Abs(got-want) > 1e-12 {
		t.Errorf("TransferTimeOn(GTX480, cuda, 1MiB) = %g, want %g", got, want)
	}

	// OpenCL's staged copies must never beat CUDA on the same link.
	if TransferTimeOn(gpu, ocl, 1<<20) <= TransferTimeOn(gpu, cuda, 1<<20) {
		t.Error("OpenCL transfer should be slower than CUDA on the same device")
	}

	// The host-resident CPU device must move large buffers faster than any
	// PCIe-attached GPU under the same toolchain.
	if TransferTimeOn(cpu, ocl, 1<<26) >= TransferTimeOn(gpu, ocl, 1<<26) {
		t.Error("CPU cache-copy should beat PCIe for large buffers")
	}

	// A zero TransferBWFactor must behave as 1.0, not divide by zero.
	bare := &Toolchain{Name: "bare"}
	if v := TransferTimeOn(gpu, bare, 1<<20); math.IsInf(v, 0) || math.IsNaN(v) || v <= 0 {
		t.Errorf("zero TransferBWFactor mishandled: %g", v)
	}
}

// TestToolchainFor.
func TestToolchainFor(t *testing.T) {
	if ToolchainFor("cuda").Name != "cuda" || ToolchainFor("opencl").Name != "opencl" {
		t.Error("ToolchainFor mapping wrong")
	}
}

// TestBreakdownInvariant: Total = Launch + max(Issue, Memory, Latency) for
// arbitrary traces.
func TestBreakdownInvariant(t *testing.T) {
	f := func(loads, muls uint16, rg uint8) bool {
		dev := arch.GTX280()
		tr := bwTrace(dev, int64(loads)+1)
		mul := ptx.NewInstruction(ptx.OpMul)
		tr.Dyn.Count(&mul, int64(muls))
		tr.ResidentGroups = int(rg%8) + 1
		b := KernelTime(dev, CUDAToolchain(), tr)
		bound := math.Max(b.Issue, math.Max(b.Memory, b.Latency))
		return math.Abs(b.Total-(b.Launch+bound)) < 1e-15 &&
			b.Issue >= 0 && b.Memory >= 0 && b.Latency >= 0 && b.Launch > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMemoryMonotonicity: more DRAM transactions never make the kernel
// faster.
func TestMemoryMonotonicity(t *testing.T) {
	dev := arch.GTX480()
	tc := OpenCLToolchain()
	prev := 0.0
	for _, trans := range []int64{1000, 10000, 100000, 1000000} {
		b := KernelTime(dev, tc, bwTrace(dev, trans))
		if b.Total < prev {
			t.Fatalf("time decreased with more transactions: %g after %g", b.Total, prev)
		}
		prev = b.Total
	}
}

// TestBreakdownString formats.
func TestBreakdownString(t *testing.T) {
	b := Breakdown{Launch: 1e-6, Issue: 2e-6, Memory: 3e-6, Latency: 4e-6, Total: 5e-6}
	s := b.String()
	for _, want := range []string{"total", "launch", "issue", "mem", "lat"} {
		if !strings.Contains(s, want) {
			t.Errorf("breakdown string missing %q: %s", want, s)
		}
	}
}

// TestBWFactorDefault: unknown microarchitectures get factor 1.
func TestBWFactorDefault(t *testing.T) {
	tc := OpenCLToolchain()
	if tc.bwFactor(arch.CellSPU) != 1 {
		t.Error("missing microarch should default to factor 1")
	}
	cu := CUDAToolchain()
	if cu.bwFactor(arch.GT200) >= 1 || cu.bwFactor(arch.Fermi) >= 1 {
		t.Error("CUDA bandwidth factors must be below 1 on the NVIDIA parts")
	}
}
