package sim

import (
	"fmt"
	"sync/atomic"

	"gpucmp/internal/mem"
	"gpucmp/internal/ptx"
)

// MemCounters aggregates the memory-system activity of one launch. All
// "Trans" fields are DRAM transactions after any caches; "Accesses" are
// warp-level instructions.
type MemCounters struct {
	GlobalLoadAccesses  int64
	GlobalStoreAccesses int64
	GlobalLoadTrans     int64
	GlobalStoreTrans    int64
	L1Hits, L1Misses    int64
	L2Hits, L2Misses    int64

	TexAccesses int64
	TexHits     int64
	TexMisses   int64
	TexTrans    int64

	ConstAccesses int64
	ConstSerial   int64 // sum of distinct-address factors
	ConstMisses   int64

	SharedAccesses int64
	SharedSerial   int64 // sum of bank-conflict factors

	LocalAccesses int64
	LocalTrans    int64

	AtomicOps int64
}

// TexLineBytes is the texture-cache line (and texture DRAM fetch) size.
const TexLineBytes = 32

// DRAMBytes returns the total DRAM traffic in bytes given the device's
// transaction segment size. Texture misses fetch TexLineBytes-sized lines.
func (m *MemCounters) DRAMBytes(segBytes int) int64 {
	trans := m.GlobalLoadTrans + m.GlobalStoreTrans + m.LocalTrans + m.ConstMisses
	return trans*int64(segBytes) + m.TexTrans*TexLineBytes
}

// Add accumulates c into m: the counters of several compute units or
// launches summed into one.
func (m *MemCounters) Add(c *MemCounters) {
	m.GlobalLoadAccesses += c.GlobalLoadAccesses
	m.GlobalStoreAccesses += c.GlobalStoreAccesses
	m.GlobalLoadTrans += c.GlobalLoadTrans
	m.GlobalStoreTrans += c.GlobalStoreTrans
	m.L1Hits += c.L1Hits
	m.L1Misses += c.L1Misses
	m.L2Hits += c.L2Hits
	m.L2Misses += c.L2Misses
	m.TexAccesses += c.TexAccesses
	m.TexHits += c.TexHits
	m.TexMisses += c.TexMisses
	m.TexTrans += c.TexTrans
	m.ConstAccesses += c.ConstAccesses
	m.ConstSerial += c.ConstSerial
	m.ConstMisses += c.ConstMisses
	m.SharedAccesses += c.SharedAccesses
	m.SharedSerial += c.SharedSerial
	m.LocalAccesses += c.LocalAccesses
	m.LocalTrans += c.LocalTrans
	m.AtomicOps += c.AtomicOps
}

// Trace is the dynamic execution record of one kernel launch.
type Trace struct {
	Kernel    string
	Toolchain string
	Device    string

	Grid, Block Dim3
	WarpWidth   int
	Warps       int64 // total warps launched

	Dyn        *ptx.Stats // dynamic warp-instruction counts
	LaneInstrs int64      // thread-level instruction count

	Mem MemCounters

	Barriers          int64
	Branches          int64
	DivergentBranches int64

	// ResidentGroups is the occupancy the device achieved for this launch.
	ResidentGroups int
}

// Summary renders the trace as one compact line — the shape the
// differential fuzzer attaches to divergence reports so a failing kernel
// arrives with its dynamic behaviour, not just wrong bytes.
func (t *Trace) Summary() string {
	return fmt.Sprintf(
		"%s/%s on %s: grid %dx%d block %dx%d, %d warp-instrs (%d lane-instrs), "+
			"%d branches (%d divergent), %d barriers, %d gld/%d gst trans, "+
			"%d shared acc (serial %d), %d const acc, %d local trans, %d atomics",
		t.Kernel, t.Toolchain, t.Device,
		t.Grid.X, t.Grid.Y, t.Block.X, t.Block.Y,
		t.Dyn.Total, t.LaneInstrs,
		t.Branches, t.DivergentBranches, t.Barriers,
		t.Mem.GlobalLoadTrans, t.Mem.GlobalStoreTrans,
		t.Mem.SharedAccesses, t.Mem.SharedSerial,
		t.Mem.ConstAccesses, t.Mem.LocalTrans, t.Mem.AtomicOps)
}

func newTrace(k *ptx.Kernel, d *Device, grid, block Dim3) *Trace {
	warpsPerBlock := (block.Count() + d.Arch.SIMDWidth - 1) / d.Arch.SIMDWidth
	return &Trace{
		Kernel:         k.Name,
		Toolchain:      k.Toolchain,
		Device:         d.Arch.Name,
		Grid:           grid,
		Block:          block,
		WarpWidth:      d.Arch.SIMDWidth,
		Warps:          int64(grid.Count()) * int64(warpsPerBlock),
		Dyn:            ptx.NewStats(),
		ResidentGroups: d.ResidentGroups(k, block),
	}
}

func (t *Trace) merge(cu *cuState) {
	for i, n := range cu.dynOps {
		if n == 0 {
			continue
		}
		in := ptx.Instruction{Op: ptx.Opcode(i >> 3), Space: ptx.Space(i & 7)}
		t.Dyn.Count(&in, n)
	}
	t.LaneInstrs += cu.laneInstrs
	t.Barriers += cu.barriers
	t.Branches += cu.branches
	t.DivergentBranches += cu.divergent

	t.Mem.Add(&cu.mem)
}

// cuState is the private execution state of one compute unit: its caches
// and statistic shards. Each compute unit runs on its own goroutine, so no
// locking is needed.
type cuState struct {
	dev   *Device
	index int

	// abort is the shared per-launch kill switch (see Launch); arena is
	// this unit's reusable block-execution state (production engine only).
	abort *atomic.Bool
	arena *cuArena

	tex    *mem.Cache
	l1     *mem.Cache
	l2     *mem.Cache // this unit's slice of the shared L2
	constc *mem.Cache

	dynOps     [512]int64 // flat [opcode << 3 | space]
	laneInstrs int64
	barriers   int64
	branches   int64
	divergent  int64
	mem        MemCounters

	// Threaded-engine shards: fused-segment dispatches, warp instructions
	// retired inside them, and segments compiled to closures by this unit.
	// Launch folds them into the Device and process-wide stats; they are
	// never part of the Trace (which must stay engine-invariant).
	superRuns     int64
	superOps      int64
	blockCompiles int64
}

func newCUState(d *Device, idx int) *cuState {
	a := d.Arch
	cu := &cuState{dev: d, index: idx}
	seg := uint32(a.GlobalSegmentSize)
	if a.HasTextureCache {
		// The texture path fetches at a finer granularity than the
		// general-purpose path, which is why irregular gathers waste less
		// bandwidth through it (the Fig. 4 mechanism).
		cu.tex = mem.NewCache(12*1024, TexLineBytes)
	}
	if a.HasL1L2 || a.ImplicitlyCached {
		l1Size := uint32(16 * 1024)
		if a.ImplicitlyCached {
			l1Size = 32 * 1024
		}
		cu.l1 = mem.NewCache(l1Size, seg)
		cu.l2 = mem.NewCache(uint32(768*1024/a.ComputeUnits), seg)
	}
	if a.HasConstantCache {
		cu.constc = mem.NewCache(8*1024, seg)
	}
	return cu
}

// reset returns a compute unit to the state a freshly-built one starts in
// — zero counters, cold caches — so the production engine can reuse units
// (and their cache backing arrays) across launches without changing
// anything observable.
func (cu *cuState) reset() {
	cu.dynOps = [512]int64{}
	cu.laneInstrs, cu.barriers, cu.branches, cu.divergent = 0, 0, 0, 0
	cu.superRuns, cu.superOps, cu.blockCompiles = 0, 0, 0
	cu.mem = MemCounters{}
	for _, c := range []*mem.Cache{cu.tex, cu.l1, cu.l2, cu.constc} {
		if c != nil {
			c.Invalidate()
			c.Hits, c.Misses = 0, 0
		}
	}
}

func (cu *cuState) countOp(op ptx.Opcode, space ptx.Space, lanes int) {
	cu.dynOps[int(op)<<3|int(space)]++
	cu.laneInstrs += int64(lanes)
}
