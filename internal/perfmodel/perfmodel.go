// Package perfmodel converts a dynamic execution trace (internal/sim) into
// kernel time on a modelled device. It is an analytic roofline-plus-latency
// model in the tradition of Hong & Kim: per-class issue cycles, DRAM
// bandwidth demand, and latency exposure divided by the warp-level
// parallelism available to hide it. The model is deliberately simple and
// fully deterministic; its constants live in internal/arch and are
// calibrated once against the paper's achieved-peak measurements (see
// DESIGN.md §4).
package perfmodel

import (
	"fmt"

	"gpucmp/internal/arch"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// Toolchain captures runtime-level (driver) behaviour that differs between
// the CUDA and OpenCL stacks on the same hardware: kernel-launch queueing
// cost and the small memory-pipeline efficiency difference the paper
// measures in Fig. 1 (OpenCL sustained slightly higher bandwidth than CUDA
// on both GPUs).
type Toolchain struct {
	Name string

	// LaunchOverhead is the host-side cost of enqueueing one kernel, added
	// to the device's own dispatch cost. The paper's BFS analysis
	// (Section IV-B4) attributes OpenCL's deficit to this being larger.
	LaunchOverhead float64

	// BWEfficiency scales the device's sustained bandwidth per
	// micro-architecture. Calibrated so Fig. 1 reproduces: OpenCL reads
	// 8.5% faster on GT200 and 2.4% faster on Fermi.
	BWEfficiency map[arch.Microarch]float64

	// HostTransferLatency is the fixed per-transfer cost the runtime adds
	// host-side (driver call, staging, completion polling).
	HostTransferLatency float64
	// TransferBWFactor derates the device link bandwidth for this runtime
	// (pinned-path quality differs between the CUDA and OpenCL stacks).
	// Zero means 1.0.
	TransferBWFactor float64
}

func (tc *Toolchain) bwFactor(m arch.Microarch) float64 {
	if f, ok := tc.BWEfficiency[m]; ok {
		return f
	}
	return 1
}

// CUDAToolchain returns the CUDA 3.2 runtime model.
func CUDAToolchain() *Toolchain {
	return &Toolchain{
		Name:           "cuda",
		LaunchOverhead: 3e-6, // scaled with the reduced problem sizes (DESIGN.md §4)
		BWEfficiency: map[arch.Microarch]float64{
			arch.GT200: 1 / 1.085, // paper Fig. 1: OpenCL +8.5% on GTX280
			arch.Fermi: 1 / 1.024, // paper Fig. 1: OpenCL +2.4% on GTX480
		},
		HostTransferLatency: 10e-6,
		TransferBWFactor:    1.0,
	}
}

// OpenCLToolchain returns the OpenCL runtime model (NVIDIA/AMD/IBM
// implementations share the launch path characteristics that matter here).
func OpenCLToolchain() *Toolchain {
	return &Toolchain{
		Name:                "opencl",
		LaunchOverhead:      8.5e-6, // ~2.8x the CUDA queueing cost (Section IV-B4)
		BWEfficiency:        map[arch.Microarch]float64{},
		HostTransferLatency: 14e-6,
		TransferBWFactor:    0.96, // staged copies through the CL runtime
	}
}

// ToolchainFor maps a toolchain tag ("cuda"/"opencl") to its model.
func ToolchainFor(name string) *Toolchain {
	if name == "cuda" {
		return CUDAToolchain()
	}
	return OpenCLToolchain()
}

// Breakdown is the timing decomposition of one kernel launch.
type Breakdown struct {
	Launch  float64 // dispatch and queueing
	Issue   float64 // instruction-issue bound
	Memory  float64 // DRAM-bandwidth bound
	Latency float64 // exposed memory latency after warp-level hiding
	Total   float64
}

// String formats the breakdown in microseconds.
func (b Breakdown) String() string {
	return fmt.Sprintf("total %.1fus (launch %.1f, issue %.1f, mem %.1f, lat %.1f)",
		b.Total*1e6, b.Launch*1e6, b.Issue*1e6, b.Memory*1e6, b.Latency*1e6)
}

type issueBucket int

const (
	bALU issueBucket = iota
	bMul
	bDiv
	bMem
	bBar
	bBra
)

func bucketOf(op ptx.Opcode) issueBucket {
	switch op {
	case ptx.OpMul, ptx.OpMad, ptx.OpFma:
		return bMul
	case ptx.OpDiv, ptx.OpRem, ptx.OpSqrt, ptx.OpRsqrt, ptx.OpSin, ptx.OpCos, ptx.OpEx2, ptx.OpLg2:
		return bDiv
	case ptx.OpLd, ptx.OpSt, ptx.OpTex, ptx.OpAtom:
		return bMem
	case ptx.OpBar:
		return bBar
	case ptx.OpBra, ptx.OpRet:
		return bBra
	default:
		return bALU
	}
}

// KernelTime evaluates the model for one launch trace.
func KernelTime(a *arch.Device, tc *Toolchain, tr *sim.Trace) Breakdown {
	t := a.Timing
	clock := a.CoreClockMHz * 1e6
	cus := float64(a.ComputeUnits)

	// ---- Issue-bound time ----
	var counts [6]float64
	var mulOps, madOps float64
	for key, n := range tr.Dyn.ByOp {
		counts[bucketOf(key.Op)] += float64(n)
		switch key.Op {
		case ptx.OpMul:
			mulOps += float64(n)
		case ptx.OpMad, ptx.OpFma:
			madOps += float64(n)
		}
	}
	issueCycles := counts[bALU]*t.IssueALU +
		counts[bMul]*t.IssueMul +
		counts[bDiv]*t.IssueDiv +
		counts[bMem]*t.IssueMem +
		counts[bBar]*t.IssueBar +
		counts[bBra]*t.IssueBra
	if a.Microarch == arch.GT200 {
		// GT200 dual-issues a MUL on the SFU pipe alongside a MAD, which
		// is where R=3 in Eq. (3) comes from: paired muls are free.
		paired := mulOps
		if madOps < paired {
			paired = madOps
		}
		issueCycles -= paired * t.IssueMul
	}
	// Shared-memory bank serialization occupies the pipeline.
	if extra := tr.Mem.SharedSerial - tr.Mem.SharedAccesses; extra > 0 {
		issueCycles += float64(extra) * t.SharedLatency
	}
	issue := issueCycles / (cus * clock * t.SustainedIssueFraction)

	// ---- Bandwidth-bound time ----
	dramBytes := float64(tr.Mem.DRAMBytes(a.GlobalSegmentSize))
	bw := a.TheoreticalPeakBandwidth() * 1e9 * t.SustainedBWFraction * tc.bwFactor(a.Microarch)
	memory := dramBytes / bw

	// ---- Latency-bound time ----
	stall := float64(tr.Mem.GlobalLoadTrans)*t.GlobalLatency +
		float64(tr.Mem.L1Hits)*t.L1Latency +
		float64(tr.Mem.L2Hits)*t.L2Latency +
		float64(tr.Mem.TexHits)*t.L1Latency +
		float64(tr.Mem.TexTrans)*t.GlobalLatency +
		float64(tr.Mem.ConstSerial)*t.ConstBroadcast +
		float64(tr.Mem.ConstMisses)*t.GlobalLatency +
		float64(tr.Mem.LocalTrans)*t.GlobalLatency +
		float64(tr.Mem.SharedAccesses)*t.SharedLatency
	warpsPerGroup := float64((tr.Block.Count() + tr.WarpWidth - 1) / tr.WarpWidth)
	mlp := t.MemoryParallelism
	if mlp < 1 {
		mlp = 1
	}
	conc := float64(tr.ResidentGroups) * warpsPerGroup * mlp
	if conc < 1 {
		conc = 1
	}
	latency := stall / (cus * clock * conc)

	b := Breakdown{
		Launch:  tc.LaunchOverhead + t.KernelLaunchBase,
		Issue:   issue,
		Memory:  memory,
		Latency: latency,
	}
	bound := issue
	if memory > bound {
		bound = memory
	}
	if latency > bound {
		bound = latency
	}
	b.Total = b.Launch + bound
	return b
}

// TotalTime sums the kernel times of a multi-launch application.
func TotalTime(a *arch.Device, tc *Toolchain, traces []*sim.Trace) float64 {
	sum := 0.0
	for _, tr := range traces {
		sum += KernelTime(a, tc, tr).Total
	}
	return sum
}

// TransferTimeOn models one host<->device copy of n bytes over a specific
// device's link: the device contributes its PCIe (or cache-copy) bandwidth
// and DMA latency, the toolchain contributes its host-side per-call cost
// and a runtime-quality derating of the link bandwidth.
func TransferTimeOn(a *arch.Device, tc *Toolchain, bytes int64) float64 {
	factor := tc.TransferBWFactor
	if factor <= 0 {
		factor = 1
	}
	bw := a.Transfer.PCIeGBps * 1e9 * factor
	return tc.HostTransferLatency + a.Transfer.LatencyS + float64(bytes)/bw
}

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
