package sim

import (
	"sync/atomic"

	"gpucmp/internal/ptx"
)

// cuArena is the reusable block-execution arena of one compute unit. The
// reference interpreter allocates registers, shared memory, local memory
// and warp contexts afresh for every work-group; the arena keeps one
// high-water-mark backing for each and recycles it across the
// b += numCU block loop (and across launches on the same device), so a
// steady-state work-group performs no heap allocations at all. Arenas
// live on the Device, one per compute-unit index; a Device never runs two
// launches concurrently, and parallel compute units each own their index,
// so no locking is needed.
type cuArena struct {
	shared []uint32
	regs   []uint32 // all warps' registers, warp-major
	local  []uint32 // all warps' lane-major local memory, warp-major
	uni    []uint64 // all warps' uniform-register bitsets, warp-major
	warps  []fwarp
	blk    fblock
}

// fblock is the production engine's per-work-group shared state (the
// counterpart of blockCtx). It is embedded in the arena and re-initialised
// per block.
type fblock struct {
	cu             *cuState
	prog           *tProgram
	k              *ptx.Kernel
	grid, block    Dim3
	ctaidX, ctaidY uint32
	shared         []uint32
	W              int

	steps  uint64
	budget uint64
	abort  *atomic.Bool

	// spec holds the block-constant special-register values, indexed by
	// ptx.SpecialReg, as one-element arrays the interpreter aliases as
	// uniform scalar operands. The tid slots are unused (tids are per-lane
	// and live on the warp).
	spec [ptx.SrWarpSize + 1][1]uint32

	warps []fwarp
}

// fwarp is the production engine's per-warp state (the counterpart of
// warpCtx), recycled from the arena across blocks.
type fwarp struct {
	b          *fblock
	warpBase   int
	regs       []uint32
	local      []uint32
	localWords int
	uni        []uint64 // one bit per register: all 64 lanes hold one value

	tidx, tidy [64]uint32
	tidUni     [2]bool
	fullMask   uint64 // populated-lane mask of this warp

	frames    []frame
	atBarrier bool
	done      bool

	// Scratch buffers for the memory path: per-lane addresses and the
	// materialised value operand of atomics.
	addrBuf [64]uint32
	valBuf  [64]uint32
	// Per-slot scalar scratch used to break dst aliasing of uniform
	// register sources (see resolveSrc).
	sbuf [3][1]uint32
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// ensure sizes the arena for one kernel/block shape, growing backings as
// needed. Existing fwarp entries keep their frame-stack capacity.
func (a *cuArena) ensure(k *ptx.Kernel, block Dim3, w int) {
	threads := block.Count()
	nwarps := (threads + w - 1) / w
	a.shared = growU32(a.shared, (k.SharedBytes+3)/4)
	a.regs = growU32(a.regs, nwarps*k.NumRegs*w)
	a.local = growU32(a.local, nwarps*((k.LocalBytes+3)/4)*w)
	a.uni = growU64(a.uni, nwarps*((k.NumRegs+63)/64))
	if cap(a.warps) < nwarps {
		nw := make([]fwarp, nwarps)
		copy(nw, a.warps)
		a.warps = nw
	} else {
		a.warps = a.warps[:nwarps]
	}
}
