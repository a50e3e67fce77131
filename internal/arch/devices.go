package arch

import (
	"fmt"
	"slices"
	"strings"
)

// The five devices of the paper. Spec columns come from Table IV; the CPU
// and Cell/BE figures come from the respective vendor datasheets (the paper
// uses them only as OpenCL portability targets, Table VI). Timing constants
// are calibrated as described in DESIGN.md §4: sustained-fraction targets
// reproduce the paper's achieved/theoretical peak ratios, and cache
// parameters reproduce the sign and rough size of each analysed gap.

// GTX480 returns the NVIDIA GeForce GTX480 (Fermi) description, the GPU of
// the "Saturn" testbed.
func GTX480() *Device {
	return &Device{
		Name:               "GeForce GTX480",
		Vendor:             "NVIDIA",
		Kind:               KindGPU,
		Microarch:          Fermi,
		ComputeUnits:       15, // 15 SMs x 32 cores = 480 (Table IV counts 60 "compute units" of 8)
		CoresPerUnit:       32,
		CoreClockMHz:       1401,
		MemClockMHz:        1848,
		MemoryBusBits:      384,
		MemoryGB:           1.5,
		OpsPerCorePerCycle: 2, // FMA
		SIMDWidth:          32,
		HasTextureCache:    true,
		HasConstantCache:   true,
		HasL1L2:            true,
		SharedMemPerUnit:   48 * 1024,
		RegistersPerUnit:   32768,
		MaxWorkGroupSize:   1024,
		MaxGroupsPerUnit:   8,
		MaxThreadsPerUnit:  1536,
		SharedMemBanks:     32,
		GlobalSegmentSize:  128,
		Timing: Timing{
			IssueALU:       1, // 2 schedulers x 16-core groups retire one warp-op per cycle
			IssueMul:       1,
			IssueDiv:       8,
			IssueMem:       2,
			IssueBar:       8,
			IssueBra:       8, // redirect + refetch stall
			GlobalLatency:  400,
			L1Latency:      30,
			L2Latency:      120,
			SharedLatency:  4,
			ConstBroadcast: 4,

			MemoryParallelism:      6,
			SustainedBWFraction:    0.877, // paper: OpenCL reaches 87.7% of TP_BW
			SustainedIssueFraction: 0.977, // paper: 97.7% of TP_FLOPS
			KernelLaunchBase:       1e-6,
		},
		// Saturn testbed: PCIe 2.0 x16, ~70% of the 8 GB/s wire rate.
		Transfer: Transfer{PCIeGBps: 5.6, LatencyS: 8e-6},
	}
}

// GTX280 returns the NVIDIA GeForce GTX280 (GT200) description, the GPU of
// the "Dutijc" testbed.
func GTX280() *Device {
	return &Device{
		Name:               "GeForce GTX280",
		Vendor:             "NVIDIA",
		Kind:               KindGPU,
		Microarch:          GT200,
		ComputeUnits:       30, // 30 SMs x 8 cores = 240
		CoresPerUnit:       8,
		CoreClockMHz:       1296,
		MemClockMHz:        1107,
		MemoryBusBits:      512,
		MemoryGB:           1,
		OpsPerCorePerCycle: 3, // dual-issued MUL alongside MAD
		SIMDWidth:          32,
		HasTextureCache:    true,
		HasConstantCache:   true,
		HasL1L2:            false,
		SharedMemPerUnit:   16 * 1024,
		RegistersPerUnit:   16384,
		MaxWorkGroupSize:   512,
		MaxGroupsPerUnit:   8,
		MaxThreadsPerUnit:  1024,
		SharedMemBanks:     16,
		GlobalSegmentSize:  64,
		Timing: Timing{
			IssueALU:       4,
			IssueMul:       4,
			IssueDiv:       16,
			IssueMem:       4,
			IssueBar:       12,
			IssueBra:       8, // redirect + refetch stall on GT200
			GlobalLatency:  550,
			L1Latency:      40, // texture/constant cache hit
			L2Latency:      0,  // no L2
			SharedLatency:  4,
			ConstBroadcast: 4,

			MemoryParallelism:      4,
			SustainedBWFraction:    0.686, // paper: OpenCL reaches 68.6% of TP_BW
			SustainedIssueFraction: 0.715, // paper: 71.5% of TP_FLOPS
			KernelLaunchBase:       1.5e-6,
		},
		// Dutijc testbed: PCIe 2.0 x16 behind an older northbridge.
		Transfer: Transfer{PCIeGBps: 5.0, LatencyS: 10e-6},
	}
}

// HD5870 returns the ATI Radeon HD5870 (Cypress) description, the GPU of
// the "Jupiter" testbed. It runs under the AMD APP OpenCL implementation
// with 64-wide wavefronts, which is what breaks warp-size-32 assumptions
// (the RdxS "FL" entries of Table VI).
func HD5870() *Device {
	return &Device{
		Name:               "Radeon HD5870",
		Vendor:             "AMD",
		Kind:               KindGPU,
		Microarch:          Cypress,
		ComputeUnits:       20,
		CoresPerUnit:       16, // 16 VLIW5 units per SIMD engine => 320 "cores"
		ProcessingElements: 1600,
		CoreClockMHz:       850,
		MemClockMHz:        1200,
		MemoryBusBits:      256,
		MemoryGB:           1,
		OpsPerCorePerCycle: 2,
		SIMDWidth:          64, // wavefront
		HasTextureCache:    true,
		HasConstantCache:   true,
		HasL1L2:            false,
		SharedMemPerUnit:   32 * 1024,
		RegistersPerUnit:   16384,
		MaxWorkGroupSize:   256,
		MaxGroupsPerUnit:   8,
		MaxThreadsPerUnit:  1536,
		SharedMemBanks:     32,
		GlobalSegmentSize:  64,
		Timing: Timing{
			IssueALU:       4,
			IssueMul:       4,
			IssueDiv:       16,
			IssueMem:       4,
			IssueBar:       12,
			IssueBra:       20, // clause-switch overhead on VLIW
			GlobalLatency:  500,
			L1Latency:      40,
			SharedLatency:  4,
			ConstBroadcast: 4,

			MemoryParallelism:      4,
			SustainedBWFraction:    0.72,
			SustainedIssueFraction: 0.60, // VLIW packing losses on scalar kernels
			KernelLaunchBase:       2e-6,
		},
		// Jupiter testbed: PCIe 2.0 x16; the APP runtime staged every copy
		// through a pinned bounce buffer, costing bandwidth and latency.
		Transfer: Transfer{PCIeGBps: 4.4, LatencyS: 12e-6},
	}
}

// Intel920 returns the Intel Core i7 920 description. As in the paper it is
// exposed as an OpenCL CPU device through the AMD APP implementation, hence
// the 64-wide logical wavefront. All global memory sits behind the coherent
// cache hierarchy, so explicit local memory is pure overhead (the TranP
// analysis of Section V).
func Intel920() *Device {
	return &Device{
		Name:               "Intel Core i7 920",
		Vendor:             "Intel",
		Kind:               KindCPU,
		Microarch:          Nehalem,
		ComputeUnits:       4, // physical cores
		CoresPerUnit:       4, // SSE lanes
		CoreClockMHz:       2670,
		MemClockMHz:        533, // DDR3-1066, triple channel
		MemoryBusBits:      192,
		MemoryGB:           6,
		OpsPerCorePerCycle: 2,  // mul+add pipes
		SIMDWidth:          64, // AMD APP CPU wavefront
		HasTextureCache:    false,
		HasConstantCache:   false,
		HasL1L2:            true,
		ImplicitlyCached:   true,
		SharedMemPerUnit:   32 * 1024,
		RegistersPerUnit:   65536,
		MaxWorkGroupSize:   1024,
		MaxGroupsPerUnit:   16,
		MaxThreadsPerUnit:  1024,
		SharedMemBanks:     1, // no banking: local memory is ordinary cached RAM
		GlobalSegmentSize:  64,
		Timing: Timing{
			IssueALU:       8, // software-pipelined work-item loop per lane batch
			IssueMul:       8,
			IssueDiv:       24,
			IssueMem:       8,
			IssueBar:       200, // a CPU barrier is a real synchronisation
			IssueBra:       4,
			GlobalLatency:  12, // cache hit in the common case
			L1Latency:      4,
			L2Latency:      40,
			SharedLatency:  30, // "local memory" = extra copy through RAM
			ConstBroadcast: 4,

			MemoryParallelism:      8,
			SustainedBWFraction:    0.60,
			SustainedIssueFraction: 0.15, // OpenCL work-item emulation overhead
			KernelLaunchBase:       4e-6,
		},
		// No PCIe link at all: an OpenCL CPU buffer is host memory, so a
		// "transfer" is a cache-hierarchy memcpy. This asymmetry is what
		// flips transfer-bound rankings (EXPERIMENTS.md).
		Transfer: Transfer{PCIeGBps: 16.0, LatencyS: 2e-6},
	}
}

// CellBE returns the Cell Broadband Engine description (IBM OpenCL). The
// deliberately small per-unit resource limits reproduce the Table VI "ABT"
// failures: kernels whose register or local-memory footprint exceeds an SPE
// local store abort with CL_OUT_OF_RESOURCES at enqueue time.
func CellBE() *Device {
	return &Device{
		Name:               "Cell Broadband Engine",
		Vendor:             "IBM",
		Kind:               KindAccelerator,
		Microarch:          CellSPU,
		ComputeUnits:       8, // SPEs
		CoresPerUnit:       4, // SPU vector lanes
		CoreClockMHz:       3200,
		MemClockMHz:        1600, // XDR, 25.6 GB/s with the 64-bit interface
		MemoryBusBits:      64,
		MemoryGB:           1,
		OpsPerCorePerCycle: 2,
		SIMDWidth:          4,
		HasTextureCache:    false,
		HasConstantCache:   false,
		HasL1L2:            false,
		UnifiedLocalStore:  true,
		SharedMemPerUnit:   7936, // local store left for data after code, stack and runtime
		RegistersPerUnit:   16384,
		MaxWorkGroupSize:   256,
		MaxGroupsPerUnit:   1,
		MaxThreadsPerUnit:  256,
		SharedMemBanks:     1,
		GlobalSegmentSize:  128, // DMA granule
		Timing: Timing{
			IssueALU:       2,
			IssueMul:       2,
			IssueDiv:       14,
			IssueMem:       6,
			IssueBar:       100,
			IssueBra:       18,  // no branch prediction on the SPU
			GlobalLatency:  700, // DMA from XDR
			L1Latency:      6,   // local store
			SharedLatency:  6,
			ConstBroadcast: 6,

			MemoryParallelism:      2,
			SustainedBWFraction:    0.55,
			SustainedIssueFraction: 0.25,
			KernelLaunchBase:       10e-6,
		},
		// Host PPE to SPE-visible XDR over the element interconnect DMA.
		Transfer: Transfer{PCIeGBps: 2.5, LatencyS: 20e-6},
	}
}

// constructors builds each modelled device, in a stable order.
var constructors = [...]func() *Device{GTX480, GTX280, HD5870, Intel920, CellBE}

// deviceNames holds constructors[i]().Name at index i, so ByName builds
// only the device it returns.
var deviceNames = func() []string {
	out := make([]string, len(constructors))
	for i, mk := range constructors {
		out[i] = mk().Name
	}
	return out
}()

// All returns fresh descriptions of every modelled device in a stable order.
func All() []*Device {
	out := make([]*Device, len(constructors))
	for i, mk := range constructors {
		out[i] = mk()
	}
	return out
}

// Names returns the Name of every modelled device in the All order, for
// CLI flag validation and error messages.
func Names() []string { return slices.Clone(deviceNames) }

// ByName returns a fresh description of the device with the given Name,
// or nil.
func ByName(name string) *Device {
	if i := slices.Index(deviceNames, name); i >= 0 {
		return constructors[i]()
	}
	return nil
}

// Resolve returns the device with the given Name, or an error that
// enumerates every known device — the message CLI `-device` flags and the
// service API print for a typo'd name.
func Resolve(name string) (*Device, error) {
	if d := ByName(name); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("unknown device %q; known devices: %s", name, strings.Join(Names(), ", "))
}
