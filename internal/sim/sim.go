// Package sim is the SIMT execution engine: it interprets ptx kernels over
// a modelled device, warp by warp, with full divergence/reconvergence
// semantics, barriers, and a memory system routed through internal/mem.
// A launch produces both functional results (in device memory) and a
// dynamic Trace (instruction and memory-transaction counts) that the
// performance model converts into time.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/mem"
	"gpucmp/internal/ptx"
)

// Launch-validation errors, mapped by the runtimes onto their own error
// codes (CL_OUT_OF_RESOURCES and friends).
var (
	ErrOutOfResources       = errors.New("out of resources")
	ErrInvalidWorkGroupSize = errors.New("invalid work-group size")
	ErrInvalidConfig        = errors.New("invalid launch configuration")
)

// ErrWatchdog is returned when a kernel is killed mid-execution: either a
// work-group exceeded the device's step budget (the display-watchdog kill
// of 2010-era driver stacks) or the host cancelled the launch through
// Device.Cancel. Errors returned from Launch wrap this sentinel, so
// callers can errors.Is against it.
var ErrWatchdog = errors.New("watchdog killed the kernel")

// errAborted is the internal sentinel a compute unit returns when it stops
// because a sibling unit already failed the launch. It never escapes
// Launch: the sibling's real error is what the caller sees.
var errAborted = errors.New("sim: launch aborted after sibling failure")

// DefaultStepBudget is the per-work-group warp-instruction budget NewDevice
// installs. It is orders of magnitude above what any modelled benchmark
// executes in one work-group, so well-behaved kernels never see it, while a
// runaway (non-terminating) kernel is killed deterministically instead of
// hanging the simulator.
const DefaultStepBudget = 1 << 26

// Dim3 is a 2-D launch dimension (the benchmarks never need Z).
type Dim3 struct{ X, Y int }

// Count returns X*Y.
func (d Dim3) Count() int { return d.X * d.Y }

// constSegBytes is the size of the constant segment's addressable window;
// the first paramAreaBytes of it mirror the kernel arguments (OpenCL-style
// front-ends read arguments from there). Like global memory the window is
// not a host allocation: Device.constSeg commits the parameter area and
// grows to cover what ConstWrite is given, and constWord reads the rest of
// the window as the zeros an eagerly allocated segment would hold.
const (
	constSegBytes  = 64 * 1024
	paramAreaBytes = 256
)

// Device is one simulated processor: the architecture description, its
// global memory, its constant segment, and per-compute-unit cache state.
type Device struct {
	Arch   *arch.Device
	Global *mem.Memory

	constSeg []uint32
	constBrk uint32

	// Parallel controls whether compute units run on separate goroutines.
	Parallel bool

	// Engine selects the interpreter: the zero value is the production
	// engine, EngineReference the oracle (see engine.go).
	Engine Engine

	// StepBudget bounds the warp instructions one work-group may execute
	// before the launch is killed with ErrWatchdog (0 = unbounded). The
	// budget is per work-group, so the verdict is independent of grid size
	// and of how blocks are scheduled across compute units.
	StepBudget uint64

	// cancelled is the host-side kill switch, set by Cancel and polled at
	// watchdog checkpoints inside the warp interpreter loop.
	cancelled atomic.Bool

	// arenas hold each compute unit's reusable block-execution state and
	// cus the reusable per-unit cache/counter shards (production engine
	// only — the reference engine builds fresh state per launch, as the
	// pre-optimization code did). The program they run belongs to the
	// kernel, not the device (programFor).
	arenas []*cuArena
	cus    []*cuState

	// execNanos accumulates the interpreter's own execution cost,
	// excluding host-side compile and staging. Under Parallel it is the
	// critical path — the maximum busy time across the concurrently
	// running compute units, not their sum.
	execNanos atomic.Int64

	// path is this device's PathCounts (DeviceEngineStats), added to once
	// per launch under pathMu; process-wide totals live in engineGlobals.
	pathMu sync.Mutex
	path   PathCounts
}

// ExecNanos returns the cumulative nanoseconds this device's compute units
// have spent executing launches: the sum of per-unit busy time for
// sequential launches, the critical path (maximum per-unit busy time) when
// the units ran on goroutines.
func (d *Device) ExecNanos() int64 { return d.execNanos.Load() }

// aggregateNanos folds per-compute-unit busy times into the launch's
// ExecNanos contribution: concurrent units overlap, so only the slowest
// one's time is wall-clock (critical path); sequential units add up.
func aggregateNanos(per []int64, parallel bool) int64 {
	var agg int64
	for _, n := range per {
		if parallel {
			if n > agg {
				agg = n
			}
		} else {
			agg += n
		}
	}
	return agg
}

// Cancel asynchronously kills any in-flight or future launch on the device:
// the warp loops observe the flag at their next checkpoint (every
// CheckpointInterval warp instructions) and abort with ErrWatchdog. It is
// the mechanism a scheduler's job timeout uses to reclaim a worker from a
// runaway kernel instead of leaking it.
func (d *Device) Cancel() { d.cancelled.Store(true) }

// Cancelled reports whether Cancel has been called.
func (d *Device) Cancelled() bool { return d.cancelled.Load() }

// DefaultBackingBytes is the addressable window of a simulated device's
// global memory: allocations and stray accesses below it succeed, anything
// above faults. The modelled capacity (Table IV) can reach 6 GB, far more
// than any benchmark here touches, so the window is what bounds a launch.
// It is not a host allocation: mem.Memory commits host memory only for
// what is allocated or stored to.
const DefaultBackingBytes = 128 << 20

// NewDevice builds a simulated device. Its global memory addresses
// DefaultBackingBytes (clamped to the device's modelled capacity) and
// starts with nothing committed, so a device costs what its launches use.
func NewDevice(a *arch.Device) (*Device, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	window := uint32(DefaultBackingBytes)
	if capacity := uint64(a.MemoryGB * float64(1<<30)); capacity < uint64(window) {
		window = uint32(capacity)
	}
	return &Device{
		Arch:       a,
		Global:     mem.NewMemory(window),
		constSeg:   make([]uint32, paramAreaBytes/4),
		constBrk:   paramAreaBytes,
		Parallel:   true,
		StepBudget: DefaultStepBudget,
	}, nil
}

// ConstAlloc reserves n bytes in the constant segment and returns its byte
// offset (the value passed as the kernel argument for a constant buffer).
func (d *Device) ConstAlloc(n uint32) (uint32, error) {
	base := (d.constBrk + 255) &^ uint32(255)
	if base+n > constSegBytes {
		return 0, fmt.Errorf("sim: constant segment exhausted: %w", ErrOutOfResources)
	}
	d.constBrk = base + n
	return base, nil
}

// ConstWrite copies words into the constant segment, committing it up to
// the end of the write.
func (d *Device) ConstWrite(off uint32, src []uint32) error {
	end := int(off/4) + len(src)
	if off%4 != 0 || end > constSegBytes/4 {
		return fmt.Errorf("sim: constant write out of range: %w", ErrInvalidConfig)
	}
	if end > len(d.constSeg) {
		d.constSeg = append(d.constSeg, make([]uint32, end-len(d.constSeg))...)
	}
	copy(d.constSeg[off/4:], src)
	return nil
}

// constWord loads the word at a byte address of the constant segment: the
// committed value, 0 for the part of the window nothing was written to, and
// ok == false past the window.
func constWord(cs []uint32, addr uint32) (v uint32, ok bool) {
	i := addr / 4
	if int(i) < len(cs) {
		return cs[i], true
	}
	return 0, i < constSegBytes/4
}

// ConstReset discards constant-segment allocations (not the param area).
func (d *Device) ConstReset() { d.constBrk = paramAreaBytes }

// CheckLaunch validates a launch configuration against device limits; the
// returned error wraps one of the sentinel errors above.
func (d *Device) CheckLaunch(k *ptx.Kernel, grid, block Dim3) error {
	a := d.Arch
	if grid.X <= 0 || grid.Y <= 0 || block.X <= 0 || block.Y <= 0 {
		return fmt.Errorf("sim: %s: grid %v block %v: %w", k.Name, grid, block, ErrInvalidConfig)
	}
	threads := block.Count()
	if threads > a.MaxWorkGroupSize {
		return fmt.Errorf("sim: %s: work-group size %d exceeds device maximum %d: %w",
			k.Name, threads, a.MaxWorkGroupSize, ErrInvalidWorkGroupSize)
	}
	if k.SharedBytes > a.SharedMemPerUnit {
		return fmt.Errorf("sim: %s: %d bytes of shared memory exceed the %d per compute unit: %w",
			k.Name, k.SharedBytes, a.SharedMemPerUnit, ErrOutOfResources)
	}
	if k.NumRegs*threads > a.RegistersPerUnit {
		return fmt.Errorf("sim: %s: %d registers x %d threads exceed the %d per compute unit: %w",
			k.Name, k.NumRegs, threads, a.RegistersPerUnit, ErrOutOfResources)
	}
	// On unified-local-store machines (Cell/BE SPEs) the shared memory and
	// every work-item's local memory share one on-chip store; kernels whose
	// combined footprint does not fit abort with CL_OUT_OF_RESOURCES — the
	// Table VI "ABT" mechanism.
	if a.UnifiedLocalStore && k.SharedBytes+k.LocalBytes*threads > a.SharedMemPerUnit {
		return fmt.Errorf("sim: %s: %d shared + %d local x %d threads bytes exceed the %d-byte local store: %w",
			k.Name, k.SharedBytes, k.LocalBytes, threads, a.SharedMemPerUnit, ErrOutOfResources)
	}
	return nil
}

// ResidentGroups returns how many work-groups of the kernel fit on one
// compute unit simultaneously (the occupancy input of the performance
// model).
func (d *Device) ResidentGroups(k *ptx.Kernel, block Dim3) int {
	a := d.Arch
	threads := block.Count()
	if threads == 0 {
		return 0
	}
	n := a.MaxGroupsPerUnit
	if lim := a.MaxThreadsPerUnit / threads; lim < n {
		n = lim
	}
	if k.SharedBytes > 0 {
		if lim := a.SharedMemPerUnit / k.SharedBytes; lim < n {
			n = lim
		}
	}
	if k.NumRegs > 0 {
		if lim := a.RegistersPerUnit / (k.NumRegs * threads); lim < n {
			n = lim
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Launch executes the kernel over the grid and returns the dynamic trace.
// args must supply one 32-bit value per kernel parameter (buffer base
// addresses for pointers, raw values for scalars).
func (d *Device) Launch(k *ptx.Kernel, grid, block Dim3, args []uint32) (*Trace, error) {
	if d.cancelled.Load() {
		return nil, fmt.Errorf("sim: %s: launch on cancelled device: %w", k.Name, ErrWatchdog)
	}
	if err := d.CheckLaunch(k, grid, block); err != nil {
		return nil, err
	}
	if len(args) != len(k.Params) {
		return nil, fmt.Errorf("sim: %s: %d arguments for %d parameters: %w",
			k.Name, len(args), len(k.Params), ErrInvalidConfig)
	}
	if 4*len(args) > paramAreaBytes {
		return nil, fmt.Errorf("sim: %s: too many parameters: %w", k.Name, ErrInvalidConfig)
	}
	// Mirror arguments into the param area of the constant segment.
	copy(d.constSeg[:len(args)], args)

	// Blocks are dealt to compute units round-robin (unit i runs blocks i,
	// i+numCU, ...), so only the first min(numCU, blocks) units ever receive
	// one; state is built, and a goroutine started, for those alone.
	numCU := d.Arch.ComputeUnits
	totalBlocks := grid.Count()
	active := min(numCU, totalBlocks)
	eng := d.Engine
	useFast := eng != EngineReference
	var prog *tProgram
	if useFast {
		prog = programFor(k, d.Arch.SIMDWidth)
		for len(d.arenas) < active {
			d.arenas = append(d.arenas, &cuArena{})
		}
		for len(d.cus) < active {
			d.cus = append(d.cus, newCUState(d, len(d.cus)))
		}
	}
	// abort is the per-launch kill switch: the first compute unit to fail
	// trips it, and sibling units observe it between blocks and at watchdog
	// checkpoints instead of running the rest of the grid to completion.
	abort := new(atomic.Bool)
	cus := make([]*cuState, active)
	for i := range cus {
		if useFast {
			cus[i] = d.cus[i]
			cus[i].reset()
			ar := d.arenas[i]
			ar.ensure(k, block, d.Arch.SIMDWidth)
			cus[i].arena = ar
		} else {
			cus[i] = newCUState(d, i)
		}
		cus[i].abort = abort
	}

	// Per-unit busy time feeds the ExecNanos aggregation below: the static
	// b += numCU block partition (no work stealing) keeps each unit's
	// workload — and therefore the simulated results — byte-deterministic,
	// and lets the critical path be read off as max-per-unit time.
	perNanos := make([]int64, active)
	runCU := func(ci int, cu *cuState) error {
		t0 := time.Now()
		defer func() { perNanos[ci] = time.Since(t0).Nanoseconds() }()
		for b := cu.index; b < totalBlocks; b += numCU {
			if abort.Load() {
				return errAborted
			}
			bx := b % grid.X
			by := b / grid.X
			var err error
			if useFast {
				err = cu.runBlockFast(prog, k, grid, block, bx, by)
			} else {
				err = cu.runBlock(k, grid, block, bx, by, args)
			}
			if err != nil {
				abort.Store(true)
				return err
			}
		}
		return nil
	}

	usedParallel := d.Parallel && runtime.GOMAXPROCS(0) > 1 && totalBlocks > 1
	var launchErr error
	if usedParallel {
		var wg sync.WaitGroup
		errs := make([]error, active)
		for i := range cus {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = runCU(i, cus[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil && !errors.Is(err, errAborted) {
				launchErr = err
				break
			}
		}
		if launchErr == nil {
			for _, err := range errs {
				if err != nil {
					launchErr = err
					break
				}
			}
		}
	} else {
		for i := range cus {
			if err := runCU(i, cus[i]); err != nil {
				launchErr = err
				break
			}
		}
	}
	d.execNanos.Add(aggregateNanos(perNanos, usedParallel))
	if useFast {
		var c PathCounts
		for _, cu := range cus {
			c.add(&cu.path)
		}
		if c != (PathCounts{}) {
			d.pathMu.Lock()
			d.path.add(&c)
			d.pathMu.Unlock()
			engineGlobals.superHits.Add(c.SegRuns)
			engineGlobals.superOps.Add(c.SegOps)
			engineGlobals.blockCompiles.Add(c.BlockCompiles)
		}
	}
	if launchErr != nil {
		return nil, launchErr
	}

	tr := newTrace(k, d, grid, block)
	for _, cu := range cus {
		tr.merge(cu)
	}
	engineGlobals.warpInstrs[eng].Add(tr.Dyn.Total)
	engineGlobals.laneInstrs[eng].Add(tr.LaneInstrs)
	return tr, nil
}
