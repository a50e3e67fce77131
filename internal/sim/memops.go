package sim

import (
	"fmt"

	"gpucmp/internal/mem"
	"gpucmp/internal/ptx"
)

// execMem executes a load, store, texture fetch, or atomic over the active
// lanes and records the memory-system activity on the compute unit.
func (w *warpCtx) execMem(in *ptx.Instruction, active uint64) error {
	W := w.b.W
	var addr [64]uint32
	w.fetch(in.Src[0], &addr)
	if in.Off != 0 {
		for l := 0; l < W; l++ {
			addr[l] += uint32(in.Off)
		}
	}
	switch in.Space {
	case ptx.SpaceGlobal:
		if in.Op == ptx.OpAtom {
			return w.atomGlobal(in, active, &addr)
		}
		return w.globalAccess(in, active, &addr)
	case ptx.SpaceTex:
		return w.texLoad(in, active, &addr)
	case ptx.SpaceConst, ptx.SpaceParam:
		return w.constLoad(in, active, &addr)
	case ptx.SpaceShared:
		return w.sharedAccess(in, active, &addr)
	case ptx.SpaceLocal:
		return w.localAccess(in, active, &addr)
	default:
		return fmt.Errorf("unhandled space %v", in.Space)
	}
}

// globalAccess handles ld.global and st.global including the cache
// hierarchy of the device.
func (w *warpCtx) globalAccess(in *ptx.Instruction, active uint64, addr *[64]uint32) error {
	cu := w.b.cu
	W := w.b.W
	seg := uint32(cu.dev.Arch.GlobalSegmentSize)
	var segs [64]uint32
	nseg := mem.CoalesceList(addr[:W], active, seg, segs[:])

	if in.Op == ptx.OpLd {
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
		dst := w.regs[int(in.Dst)*W : int(in.Dst)*W+W]
		for l := 0; l < W; l++ {
			if active&(1<<uint(l)) == 0 {
				continue
			}
			v, err := cu.dev.Global.Load(addr[l])
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
	var val [64]uint32
	w.fetch(in.Src[1], &val)
	for l := 0; l < W; l++ {
		if active&(1<<uint(l)) == 0 {
			continue
		}
		if err := cu.dev.Global.Store(addr[l], val[l]); err != nil {
			return err
		}
	}
	return nil
}

// texLoad fetches read-only global data through the texture-cache path.
// Devices without a texture cache degrade to the ordinary global path.
func (w *warpCtx) texLoad(in *ptx.Instruction, active uint64, addr *[64]uint32) error {
	cu := w.b.cu
	if cu.tex == nil {
		ld := *in
		ld.Op = ptx.OpLd
		return w.globalAccess(&ld, active, addr)
	}
	W := w.b.W
	seg := cu.tex.LineBytes()
	var segs [64]uint32
	nseg := mem.CoalesceList(addr[:W], active, seg, segs[:])
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
	dst := w.regs[int(in.Dst)*W : int(in.Dst)*W+W]
	for l := 0; l < W; l++ {
		if active&(1<<uint(l)) == 0 {
			continue
		}
		v, err := cu.dev.Global.Load(addr[l])
		if err != nil {
			return err
		}
		dst[l] = v
	}
	return nil
}

// constLoad reads the constant segment (kernel arguments live in its first
// 256 bytes; constant buffers after them).
func (w *warpCtx) constLoad(in *ptx.Instruction, active uint64, addr *[64]uint32) error {
	cu := w.b.cu
	W := w.b.W
	if in.Space == ptx.SpaceConst {
		cu.mem.ConstAccesses++
		cu.mem.ConstSerial += int64(mem.DistinctAddrs(addr[:W], active))
		if cu.constc != nil {
			var segs [64]uint32
			nseg := mem.CoalesceList(addr[:W], active, cu.constc.LineBytes(), segs[:])
			for i := 0; i < nseg; i++ {
				if !cu.constc.Access(segs[i]) {
					cu.mem.ConstMisses++
				}
			}
		}
	}
	cs := cu.dev.constSeg
	dst := w.regs[int(in.Dst)*W : int(in.Dst)*W+W]
	for l := 0; l < W; l++ {
		if active&(1<<uint(l)) == 0 {
			continue
		}
		v, ok := constWord(cs, addr[l])
		if !ok {
			return fmt.Errorf("constant access at 0x%x beyond segment", addr[l])
		}
		dst[l] = v
	}
	return nil
}

func (w *warpCtx) sharedAccess(in *ptx.Instruction, active uint64, addr *[64]uint32) error {
	cu := w.b.cu
	W := w.b.W
	sh := w.b.shared
	cu.mem.SharedAccesses++
	cu.mem.SharedSerial += int64(mem.BankConflictFactor(addr[:W], active, cu.dev.Arch.SharedMemBanks))

	if in.Op == ptx.OpAtom {
		return w.atomShared(in, active, addr)
	}
	if in.Op == ptx.OpLd {
		dst := w.regs[int(in.Dst)*W : int(in.Dst)*W+W]
		for l := 0; l < W; l++ {
			if active&(1<<uint(l)) == 0 {
				continue
			}
			i := addr[l] / 4
			if int(i) >= len(sh) {
				return fmt.Errorf("shared access at 0x%x beyond %d bytes", addr[l], len(sh)*4)
			}
			dst[l] = sh[i]
		}
		return nil
	}
	var val [64]uint32
	w.fetch(in.Src[1], &val)
	for l := 0; l < W; l++ {
		if active&(1<<uint(l)) == 0 {
			continue
		}
		i := addr[l] / 4
		if int(i) >= len(sh) {
			return fmt.Errorf("shared access at 0x%x beyond %d bytes", addr[l], len(sh)*4)
		}
		sh[i] = val[l]
	}
	return nil
}

func (w *warpCtx) localAccess(in *ptx.Instruction, active uint64, addr *[64]uint32) error {
	cu := w.b.cu
	W := w.b.W
	cu.mem.LocalAccesses++
	lanes := mem.ActiveLanes(active)
	seg := cu.dev.Arch.GlobalSegmentSize
	trans := (lanes*4 + seg - 1) / seg
	if cu.l1 != nil {
		// Local memory on cached devices is effectively L1-resident.
		cu.mem.L1Hits += int64(trans)
	} else {
		cu.mem.LocalTrans += int64(trans)
	}

	if in.Op == ptx.OpLd {
		dst := w.regs[int(in.Dst)*W : int(in.Dst)*W+W]
		for l := 0; l < W; l++ {
			if active&(1<<uint(l)) == 0 {
				continue
			}
			i := int(addr[l] / 4)
			if i >= w.localWords {
				return fmt.Errorf("local access at 0x%x beyond %d bytes", addr[l], w.localWords*4)
			}
			dst[l] = w.local[l*w.localWords+i]
		}
		return nil
	}
	var val [64]uint32
	w.fetch(in.Src[1], &val)
	for l := 0; l < W; l++ {
		if active&(1<<uint(l)) == 0 {
			continue
		}
		i := int(addr[l] / 4)
		if i >= w.localWords {
			return fmt.Errorf("local access at 0x%x beyond %d bytes", addr[l], w.localWords*4)
		}
		w.local[l*w.localWords+i] = val[l]
	}
	return nil
}

func applyAtom(op ptx.AtomOp, old, v uint32) uint32 {
	switch op {
	case ptx.AtomAdd:
		return old + v
	case ptx.AtomOr:
		return old | v
	case ptx.AtomAnd:
		return old & v
	case ptx.AtomMax:
		if v > old {
			return v
		}
		return old
	case ptx.AtomMin:
		if v < old {
			return v
		}
		return old
	case ptx.AtomExch:
		return v
	default:
		return old
	}
}

func (w *warpCtx) atomGlobal(in *ptx.Instruction, active uint64, addr *[64]uint32) error {
	cu := w.b.cu
	W := w.b.W
	cu.mem.AtomicOps += int64(mem.ActiveLanes(active))
	cu.mem.GlobalStoreTrans += int64(mem.DistinctAddrs(addr[:W], active))
	var val [64]uint32
	w.fetch(in.Src[1], &val)
	dst := w.regs[int(in.Dst)*W : int(in.Dst)*W+W]
	for l := 0; l < W; l++ {
		if active&(1<<uint(l)) == 0 {
			continue
		}
		old, err := cu.dev.Global.Atomic(addr[l], func(o uint32) uint32 { return applyAtom(in.Atom, o, val[l]) })
		if err != nil {
			return err
		}
		dst[l] = old
	}
	return nil
}

func (w *warpCtx) atomShared(in *ptx.Instruction, active uint64, addr *[64]uint32) error {
	cu := w.b.cu
	W := w.b.W
	sh := w.b.shared
	cu.mem.AtomicOps += int64(mem.ActiveLanes(active))
	var val [64]uint32
	w.fetch(in.Src[1], &val)
	dst := w.regs[int(in.Dst)*W : int(in.Dst)*W+W]
	for l := 0; l < W; l++ {
		if active&(1<<uint(l)) == 0 {
			continue
		}
		i := addr[l] / 4
		if int(i) >= len(sh) {
			return fmt.Errorf("shared atomic at 0x%x beyond %d bytes", addr[l], len(sh)*4)
		}
		old := sh[i]
		sh[i] = applyAtom(in.Atom, old, val[l])
		dst[l] = old
	}
	return nil
}
