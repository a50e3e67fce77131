package sim

import (
	"fmt"
	"math/bits"

	"gpucmp/internal/mem"
	"gpucmp/internal/ptx"
)

// Production memory path. Counter accounting, cache-walk order, bounds
// checks and error strings mirror memops.go exactly. The structural
// difference is how the warp's address pattern is classified: a uniform
// base register short-circuits the whole derivation (one segment, one
// distinct address, bank factor 1 — what the reference computes lane by
// lane for an all-equal pattern), and non-uniform patterns go through the
// single-pass mem.*Fast routines, which are bit-identical drop-ins for
// the reference ones.

// execMemFast dispatches on the decoded memory-space tag.
func (w *fwarp) execMemFast(d *decodedOp, active uint64) error {
	switch d.mk {
	case mkGlobal:
		return w.fglobal(d, active, d.op == ptx.OpLd)
	case mkAtomGlobal:
		return w.fatomGlobal(d, active)
	case mkTex:
		return w.ftex(d, active)
	case mkConst:
		return w.fconst(d, active)
	case mkShared:
		return w.fshared(d, active)
	case mkLocal:
		return w.flocal(d, active)
	default:
		return fmt.Errorf("unhandled space %v", d.space)
	}
}

// resolveAddr computes the per-lane byte addresses of a memory access.
// When the base operand is uniform it returns the single address with
// ok=true; otherwise it fills addrBuf for all W lanes (like the
// reference, which adds the offset unconditionally) and returns ok=false.
func (w *fwarp) resolveAddr(d *decodedOp) (uint32, bool) {
	a := w.resolve(&d.a)
	if a.m == 0 {
		return a.p[0] + uint32(d.off), true
	}
	W := w.b.W
	off := uint32(d.off)
	for l := 0; l < W; l++ {
		w.addrBuf[l] = a.p[l] + off
	}
	return 0, false
}

// segBase maps an address to its segment base the way mem.CoalesceList
// does (segBytes 0 defaults to 64).
func segBase(addr, segBytes uint32) uint32 {
	if segBytes == 0 {
		segBytes = 64
	}
	return addr / segBytes * segBytes
}

// writeLanes stores one loaded value into the destination register across
// the active lanes, maintaining the uniformity bit: a full-warp broadcast
// leaves the register uniform.
func (w *fwarp) writeLanes(dst int32, active uint64, v uint32) {
	W := w.b.W
	out := w.regs[int(dst)*W : int(dst)*W+W]
	if active == w.fullMask {
		for l := 0; l < W; l++ {
			out[l] = v
		}
		w.setUni(dst)
		return
	}
	for m := active; m != 0; m &= m - 1 {
		out[bits.TrailingZeros64(m)] = v
	}
	w.clearUni(dst)
}

// lastLane returns the highest set lane of a non-zero mask — the lane
// whose value survives when every active lane stores to one address
// (the reference stores lane by lane, so the last write wins).
func lastLane(active uint64) int { return 63 - bits.LeadingZeros64(active) }

func (w *fwarp) fglobal(d *decodedOp, active uint64, isLoad bool) error {
	cu := w.b.cu
	W := w.b.W
	seg := uint32(cu.dev.Arch.GlobalSegmentSize)
	uaddr, uni := w.resolveAddr(d)
	var segs [64]uint32
	nseg := 1
	if uni {
		segs[0] = segBase(uaddr, seg)
	} else {
		nseg = mem.CoalesceListFast(w.addrBuf[:W], active, seg, segs[:])
	}

	if isLoad {
		cu.mem.GlobalLoadAccesses++
		if cu.l1 != nil {
			for i := 0; i < nseg; i++ {
				if cu.l1.Access(segs[i]) {
					cu.mem.L1Hits++
				} else {
					cu.mem.L1Misses++
					if cu.l2.Access(segs[i]) {
						cu.mem.L2Hits++
					} else {
						cu.mem.L2Misses++
						cu.mem.GlobalLoadTrans++
					}
				}
			}
		} else {
			cu.mem.GlobalLoadTrans += int64(nseg)
		}
		if uni {
			v, err := cu.dev.Global.Load(uaddr)
			if err != nil {
				return err
			}
			w.writeLanes(d.dst, active, v)
			return nil
		}
		dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]
		w.clearUni(d.dst)
		for mm := active; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			v, err := cu.dev.Global.Load(w.addrBuf[l])
			if err != nil {
				return err
			}
			dst[l] = v
		}
		return nil
	}

	// Store.
	cu.mem.GlobalStoreAccesses++
	if cu.l2 != nil {
		for i := 0; i < nseg; i++ {
			if cu.l2.Access(segs[i]) {
				cu.mem.L2Hits++
			} else {
				cu.mem.L2Misses++
				cu.mem.GlobalStoreTrans++
			}
		}
	} else {
		cu.mem.GlobalStoreTrans += int64(nseg)
	}
	v := w.resolve(&d.b)
	if uni {
		// Every active lane stores to one address; the last write wins and
		// any bounds error is the same for every lane.
		return cu.dev.Global.Store(uaddr, v.p[lastLane(active)&v.m])
	}
	for mm := active; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		if err := cu.dev.Global.Store(w.addrBuf[l], v.p[l&v.m]); err != nil {
			return err
		}
	}
	return nil
}

func (w *fwarp) ftex(d *decodedOp, active uint64) error {
	cu := w.b.cu
	if cu.tex == nil {
		// Devices without a texture cache degrade to the global load path.
		return w.fglobal(d, active, true)
	}
	W := w.b.W
	seg := cu.tex.LineBytes()
	uaddr, uni := w.resolveAddr(d)
	var segs [64]uint32
	nseg := 1
	if uni {
		segs[0] = segBase(uaddr, seg)
	} else {
		nseg = mem.CoalesceListFast(w.addrBuf[:W], active, seg, segs[:])
	}
	cu.mem.TexAccesses++
	for i := 0; i < nseg; i++ {
		if cu.tex.Access(segs[i]) {
			cu.mem.TexHits++
		} else {
			cu.mem.TexMisses++
			if cu.l2 != nil && cu.l2.Access(segs[i]) {
				cu.mem.L2Hits++
			} else {
				cu.mem.TexTrans++
			}
		}
	}
	if uni {
		v, err := cu.dev.Global.Load(uaddr)
		if err != nil {
			return err
		}
		w.writeLanes(d.dst, active, v)
		return nil
	}
	dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]
	w.clearUni(d.dst)
	for mm := active; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		v, err := cu.dev.Global.Load(w.addrBuf[l])
		if err != nil {
			return err
		}
		dst[l] = v
	}
	return nil
}

func (w *fwarp) fconst(d *decodedOp, active uint64) error {
	cu := w.b.cu
	W := w.b.W
	uaddr, uni := w.resolveAddr(d)
	if d.space == ptx.SpaceConst {
		cu.mem.ConstAccesses++
		if uni {
			cu.mem.ConstSerial++ // one distinct address: broadcast
		} else {
			cu.mem.ConstSerial += int64(mem.DistinctAddrsFast(w.addrBuf[:W], active))
		}
		if cu.constc != nil {
			if uni {
				if !cu.constc.Access(segBase(uaddr, cu.constc.LineBytes())) {
					cu.mem.ConstMisses++
				}
			} else {
				var segs [64]uint32
				nseg := mem.CoalesceListFast(w.addrBuf[:W], active, cu.constc.LineBytes(), segs[:])
				for i := 0; i < nseg; i++ {
					if !cu.constc.Access(segs[i]) {
						cu.mem.ConstMisses++
					}
				}
			}
		}
	}
	cs := cu.dev.constSeg
	if uni {
		v, ok := constWord(cs, uaddr)
		if !ok {
			return fmt.Errorf("constant access at 0x%x beyond segment", uaddr)
		}
		w.writeLanes(d.dst, active, v)
		return nil
	}
	dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]
	w.clearUni(d.dst)
	for mm := active; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		v, ok := constWord(cs, w.addrBuf[l])
		if !ok {
			return fmt.Errorf("constant access at 0x%x beyond segment", w.addrBuf[l])
		}
		dst[l] = v
	}
	return nil
}

func (w *fwarp) fshared(d *decodedOp, active uint64) error {
	cu := w.b.cu
	W := w.b.W
	sh := w.b.shared
	uaddr, uni := w.resolveAddr(d)
	cu.mem.SharedAccesses++
	if uni {
		cu.mem.SharedSerial++ // all-equal addresses broadcast: factor 1
	} else {
		cu.mem.SharedSerial += int64(mem.BankConflictFactorFast(w.addrBuf[:W], active, cu.dev.Arch.SharedMemBanks))
	}

	if d.op == ptx.OpAtom {
		if uni {
			for l := 0; l < W; l++ {
				w.addrBuf[l] = uaddr
			}
		}
		return w.fatomShared(d, active)
	}
	if d.op == ptx.OpLd {
		if uni {
			i := uaddr / 4
			if int(i) >= len(sh) {
				return fmt.Errorf("shared access at 0x%x beyond %d bytes", uaddr, len(sh)*4)
			}
			w.writeLanes(d.dst, active, sh[i])
			return nil
		}
		dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]
		w.clearUni(d.dst)
		for mm := active; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			i := w.addrBuf[l] / 4
			if int(i) >= len(sh) {
				return fmt.Errorf("shared access at 0x%x beyond %d bytes", w.addrBuf[l], len(sh)*4)
			}
			dst[l] = sh[i]
		}
		return nil
	}
	v := w.resolve(&d.b)
	if uni {
		i := uaddr / 4
		if int(i) >= len(sh) {
			return fmt.Errorf("shared access at 0x%x beyond %d bytes", uaddr, len(sh)*4)
		}
		sh[i] = v.p[lastLane(active)&v.m]
		return nil
	}
	for mm := active; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		i := w.addrBuf[l] / 4
		if int(i) >= len(sh) {
			return fmt.Errorf("shared access at 0x%x beyond %d bytes", w.addrBuf[l], len(sh)*4)
		}
		sh[i] = v.p[l&v.m]
	}
	return nil
}

func (w *fwarp) flocal(d *decodedOp, active uint64) error {
	cu := w.b.cu
	W := w.b.W
	cu.mem.LocalAccesses++
	lanes := mem.ActiveLanes(active)
	seg := cu.dev.Arch.GlobalSegmentSize
	trans := (lanes*4 + seg - 1) / seg
	if cu.l1 != nil {
		cu.mem.L1Hits += int64(trans)
	} else {
		cu.mem.LocalTrans += int64(trans)
	}

	// Local memory is lane-major: equal addresses still hit per-lane slots,
	// so there is no uniform data path — materialise the addresses and run
	// the per-lane loop.
	uaddr, uni := w.resolveAddr(d)
	if uni {
		for l := 0; l < W; l++ {
			w.addrBuf[l] = uaddr
		}
	}
	if d.op == ptx.OpLd {
		dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]
		w.clearUni(d.dst)
		for mm := active; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			i := int(w.addrBuf[l] / 4)
			if i >= w.localWords {
				return fmt.Errorf("local access at 0x%x beyond %d bytes", w.addrBuf[l], w.localWords*4)
			}
			dst[l] = w.local[l*w.localWords+i]
		}
		return nil
	}
	v := w.resolve(&d.b)
	for mm := active; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		i := int(w.addrBuf[l] / 4)
		if i >= w.localWords {
			return fmt.Errorf("local access at 0x%x beyond %d bytes", w.addrBuf[l], w.localWords*4)
		}
		w.local[l*w.localWords+i] = v.p[l&v.m]
	}
	return nil
}

// materialiseVal snapshots the value operand into valBuf for the active
// lanes — atomics write the destination register while reading the value,
// so an in-place alias of the register file would see lane 0's old value
// overwritten before later lanes read (the reference copies operands up
// front). Inactive lanes are never read back, so they stay stale.
func (w *fwarp) materialiseVal(d *decodedOp, active uint64) {
	v := w.resolve(&d.b)
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		w.valBuf[l] = v.p[l&v.m]
	}
}

func (w *fwarp) fatomGlobal(d *decodedOp, active uint64) error {
	cu := w.b.cu
	W := w.b.W
	cu.mem.AtomicOps += int64(mem.ActiveLanes(active))
	uaddr, uni := w.resolveAddr(d)
	if uni {
		cu.mem.GlobalStoreTrans++ // one distinct address
		for l := 0; l < W; l++ {
			w.addrBuf[l] = uaddr
		}
	} else {
		cu.mem.GlobalStoreTrans += int64(mem.DistinctAddrsFast(w.addrBuf[:W], active))
	}
	w.materialiseVal(d, active)
	dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]
	w.clearUni(d.dst)
	for mm := active; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		old, err := cu.dev.Global.Atomic(w.addrBuf[l], func(o uint32) uint32 { return applyAtom(d.atom, o, w.valBuf[l]) })
		if err != nil {
			return err
		}
		dst[l] = old
	}
	return nil
}

// fatomShared runs after fshared has recorded the access counters and
// materialised addrBuf.
func (w *fwarp) fatomShared(d *decodedOp, active uint64) error {
	cu := w.b.cu
	W := w.b.W
	sh := w.b.shared
	cu.mem.AtomicOps += int64(mem.ActiveLanes(active))
	w.materialiseVal(d, active)
	dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]
	w.clearUni(d.dst)
	for mm := active; mm != 0; mm &= mm - 1 {
		l := bits.TrailingZeros64(mm)
		i := w.addrBuf[l] / 4
		if int(i) >= len(sh) {
			return fmt.Errorf("shared atomic at 0x%x beyond %d bytes", w.addrBuf[l], len(sh)*4)
		}
		old := sh[i]
		sh[i] = applyAtom(d.atom, old, w.valBuf[l])
		dst[l] = old
	}
	return nil
}
