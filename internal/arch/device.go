// Package arch describes the processor architectures the paper measures:
// the NVIDIA GTX280 (GT200) and GTX480 (Fermi) GPUs, the ATI Radeon HD5870
// (Cypress), the Intel Core i7 920 CPU, and the Cell Broadband Engine.
//
// A Device is a pure description: published specifications (Table IV of the
// paper), micro-architectural features that the paper's analysis hinges on
// (texture cache, constant cache, the Fermi L1/L2 hierarchy, warp versus
// wavefront width), and calibrated timing constants consumed by the
// performance model. The package has no dependencies so that every other
// layer of the simulator can import it.
package arch

import "fmt"

// Kind classifies a device the way OpenCL device types do.
type Kind int

const (
	// KindGPU is a discrete graphics processor.
	KindGPU Kind = iota
	// KindCPU is a general-purpose multi-core processor.
	KindCPU
	// KindAccelerator is a dedicated offload processor (the Cell/BE SPEs).
	KindAccelerator
)

// String returns the OpenCL-style name of the device kind.
func (k Kind) String() string {
	switch k {
	case KindGPU:
		return "GPU"
	case KindCPU:
		return "CPU"
	case KindAccelerator:
		return "ACCELERATOR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Microarch identifies the micro-architecture family, which controls which
// caches exist and how global-memory transactions are formed.
type Microarch int

const (
	// GT200 is the GTX280 generation: no general-purpose cache for global
	// memory, a read-only constant cache, and a read-only texture cache.
	GT200 Microarch = iota
	// Fermi is the GTX480 generation: true L1/L2 cache hierarchy in front
	// of global memory in addition to the constant and texture paths.
	Fermi
	// Cypress is the ATI HD5870 generation (VLIW5, 64-wide wavefronts).
	Cypress
	// Nehalem is the Intel i7 920 (large coherent caches, SSE lanes).
	Nehalem
	// CellBE is the Cell Broadband Engine (SPEs with 256 KiB local store).
	CellSPU
)

// String returns the family name.
func (m Microarch) String() string {
	switch m {
	case GT200:
		return "GT200"
	case Fermi:
		return "Fermi"
	case Cypress:
		return "Cypress"
	case Nehalem:
		return "Nehalem"
	case CellSPU:
		return "Cell/BE"
	default:
		return fmt.Sprintf("Microarch(%d)", int(m))
	}
}

// Device is a full description of one execution platform. The spec fields
// mirror Table IV of the paper; the limit fields bound occupancy and decide
// the CL_OUT_OF_RESOURCES failures of Table VI; the Timing field holds the
// calibrated constants used by the performance model.
type Device struct {
	Name      string
	Vendor    string
	Kind      Kind
	Microarch Microarch

	// Compute resources (Table IV).
	ComputeUnits       int // streaming multiprocessors / SIMD engines / cores
	CoresPerUnit       int // scalar cores ("CUDA cores") per compute unit
	ProcessingElements int // total ALU lanes where it differs from cores (HD5870: 1600)
	CoreClockMHz       float64
	MemClockMHz        float64
	MemoryBusBits      int     // MIW in the paper
	MemoryGB           float64 // device memory capacity

	// OpsPerCorePerCycle is R in Eq. (3): the maximum floating-point
	// operations one scalar core retires per cycle. It is 3 on GT200
	// (dual-issued mul+mad) and 2 on Fermi (FMA).
	OpsPerCorePerCycle float64

	// SIMDWidth is the hardware scheduling width: a warp (32) on NVIDIA
	// parts, a wavefront (64) under the AMD APP implementation (both the
	// HD5870 and the CPU device), and the SPU vector width on Cell.
	SIMDWidth int

	// Feature flags driving the paper's per-benchmark analyses.
	HasTextureCache  bool // GT200/Fermi/Cypress texture path
	HasConstantCache bool // broadcast constant cache
	HasL1L2          bool // Fermi-style general-purpose cache hierarchy
	ImplicitlyCached bool // CPU-like: all global memory behind coherent caches
	// UnifiedLocalStore marks devices where one on-chip store must hold
	// both shared memory and every work-item's local memory (the Cell/BE
	// SPE local store) — the mechanism behind CL_OUT_OF_RESOURCES aborts.
	UnifiedLocalStore bool

	// Resource limits per compute unit; these bound occupancy and trigger
	// build/launch failures when exceeded.
	SharedMemPerUnit  int // bytes of shared/local memory per compute unit
	RegistersPerUnit  int // 32-bit registers per compute unit
	MaxWorkGroupSize  int
	MaxGroupsPerUnit  int
	MaxThreadsPerUnit int // resident-thread limit per compute unit
	SharedMemBanks    int // shared-memory banks (16 on GT200, 32 on Fermi)
	GlobalSegmentSize int // bytes per global-memory transaction segment

	Timing Timing

	// Transfer describes the host link the device's buffers travel over.
	// The D-Wave comparison argument (PAPERS.md, arXiv:1005.2581) is that
	// device rankings are meaningless unless this cost is counted, so it is
	// a per-device property: each testbed of the paper had its own host
	// board, and the CPU device has no PCIe link at all.
	Transfer Transfer
}

// Transfer holds the calibrated host<->device link parameters used for
// transfer-inclusive accounting. For discrete GPUs this is the effective
// PCIe throughput of the testbed's host board; for the CPU device it is a
// cache-hierarchy copy (OpenCL CPU buffers are host-resident); for the
// Cell/BE it is the XDR DMA path through the element interconnect.
type Transfer struct {
	// PCIeGBps is the effective host<->device bandwidth in GB/s.
	PCIeGBps float64
	// LatencyS is the fixed per-transfer link latency in seconds (DMA
	// setup, doorbell, completion interrupt), on top of whatever the
	// runtime adds host-side.
	LatencyS float64
}

// TheoreticalPeakBandwidth implements Eq. (2) of the paper:
//
//	TP_BW = MC * (MIW/8) * 2 * 1e-9  [GB/s]
//
// with MC in Hz (the paper quotes the effective double-data-rate clock as
// MemClockMHz*1e6, doubled once more for the DDR transfer).
func (d *Device) TheoreticalPeakBandwidth() float64 {
	return d.MemClockMHz * 1e6 * float64(d.MemoryBusBits/8) * 2 * 1e-9
}

// TheoreticalPeakFLOPS implements Eq. (3) of the paper:
//
//	TP_FLOPS = CC * #Cores * R * 1e-9  [GFlops/s]
//
// For devices that expose more processing elements than "cores" (HD5870),
// the processing-element count is used, matching vendor peak figures.
func (d *Device) TheoreticalPeakFLOPS() float64 {
	cores := d.ComputeUnits * d.CoresPerUnit
	if d.ProcessingElements > cores {
		cores = d.ProcessingElements
	}
	return d.CoreClockMHz * 1e6 * float64(cores) * d.OpsPerCorePerCycle * 1e-9
}

// TotalCores returns the scalar core count (#Cores in Table IV).
func (d *Device) TotalCores() int { return d.ComputeUnits * d.CoresPerUnit }

// String returns "Name (Microarch)".
func (d *Device) String() string { return fmt.Sprintf("%s (%s)", d.Name, d.Microarch) }

// Timing holds the calibrated machine constants consumed by the performance
// model. All rates are per compute unit unless stated otherwise.
type Timing struct {
	// IssueCycles maps an instruction cost class to the number of core
	// cycles one warp-wide instruction occupies an issue port.
	IssueALU float64 // add/sub/mov/logic/shift/setp/selp/cvt
	IssueMul float64 // mul/mad/fma
	IssueDiv float64 // div, transcendental
	IssueMem float64 // address generation cost of a ld/st
	IssueBar float64 // barrier
	IssueBra float64 // branch

	// Memory-system constants.
	GlobalLatency  float64 // cycles for an uncached global access
	L1Latency      float64 // cycles for an L1/texture/constant hit
	L2Latency      float64 // cycles for an L2 hit (Fermi only)
	SharedLatency  float64 // cycles for a conflict-free shared access
	ConstBroadcast float64 // cycles for a constant-cache broadcast hit

	// MemoryParallelism is the number of outstanding memory requests one
	// warp keeps in flight (MLP); together with the resident-warp count it
	// decides how much latency the machine hides.
	MemoryParallelism float64

	// SustainedBWFraction is the fraction of TheoreticalPeakBandwidth a
	// perfectly coalesced stream actually sustains (device+driver losses).
	SustainedBWFraction float64
	// SustainedIssueFraction is the fraction of TheoreticalPeakFLOPS a
	// pure-ALU kernel actually sustains.
	SustainedIssueFraction float64

	// KernelLaunchBase is the device-side cost in seconds of dispatching
	// one kernel (the runtime adds its own queueing overhead on top).
	KernelLaunchBase float64
}

// Validate reports an error if the description is internally inconsistent.
// It is used by tests and by NewContext-style constructors in the runtimes.
func (d *Device) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("arch: device has no name")
	case d.ComputeUnits <= 0:
		return fmt.Errorf("arch: %s: ComputeUnits must be positive", d.Name)
	case d.CoreClockMHz <= 0 || d.MemClockMHz <= 0:
		return fmt.Errorf("arch: %s: clocks must be positive", d.Name)
	case d.SIMDWidth <= 0:
		return fmt.Errorf("arch: %s: SIMDWidth must be positive", d.Name)
	case d.MaxWorkGroupSize <= 0:
		return fmt.Errorf("arch: %s: MaxWorkGroupSize must be positive", d.Name)
	case d.MaxThreadsPerUnit < d.MaxWorkGroupSize:
		return fmt.Errorf("arch: %s: MaxThreadsPerUnit below MaxWorkGroupSize", d.Name)
	case d.SharedMemPerUnit < 0 || d.RegistersPerUnit < 0:
		return fmt.Errorf("arch: %s: negative resource limits", d.Name)
	case d.Timing.SustainedBWFraction <= 0 || d.Timing.SustainedBWFraction > 1:
		return fmt.Errorf("arch: %s: SustainedBWFraction out of (0,1]", d.Name)
	case d.Timing.SustainedIssueFraction <= 0 || d.Timing.SustainedIssueFraction > 1:
		return fmt.Errorf("arch: %s: SustainedIssueFraction out of (0,1]", d.Name)
	case d.Transfer.PCIeGBps <= 0:
		return fmt.Errorf("arch: %s: Transfer.PCIeGBps must be positive", d.Name)
	case d.Transfer.LatencyS < 0:
		return fmt.Errorf("arch: %s: negative Transfer.LatencyS", d.Name)
	}
	return nil
}
