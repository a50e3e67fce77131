package sim

import (
	"fmt"

	"gpucmp/internal/mem"
	"gpucmp/internal/ptx"
)

// The block compiler: a hot fused segment is lowered once per (kernel,
// SIMD width) into a compact micro-op array that a single switch-threaded
// executor runs when the warp is fully populated and fully active — the
// dominant shape in every benchmark. The lowering wins over the generic
// interpreter in four ways:
//
//  1. Operand resolution happens at compile time: register bases are
//     precomputed, immediates captured (float immediates pre-converted),
//     and the resolveSrc aliasing machinery disappears — per-lane loops
//     read lane l before writing lane l, so in-place views are safe.
//  2. Instruction counting is batched: the segment's dynOps deltas are
//     aggregated at compile time and applied with a handful of adds, and
//     laneInstrs advances once per segment instead of once per op.
//  3. The vector loops are plain counted loops over [0, W) — no lane
//     bitmask walking — written so the bounds checker can hoist.
//  4. Chained f32 fma pairs (the matmul accumulate pattern) run as one
//     loop that forwards the intermediate through a register instead of
//     round-tripping it through the destination vector.
//
// Execution shapes outside an arm's fast path (uniform sources, guarded
// ops, tid/spec operands, exotic kinds) fall back to execALUFast, so the
// arithmetic either is textually identical to the interpreted path or reads
// identical values lane by lane — which keeps the engines bit-identical.
// Uniformity bookkeeping can be conservatively weaker here (a vector arm
// clears the destination's uniform bit where execALUFast may have set
// it); the bit is advisory, so that can cost speed but never results.
//
// Partially-masked executions never reach the compiled path at all:
// runThreaded interprets those through runSegInterp.

// uKind discriminates the executor's switch arms. The RR/RI suffix is the
// operand shape (register-register vs register-immediate).
type uKind uint8

const (
	uALUFull  uKind = iota // any unguarded ALU op via execALUFast
	uALUGuard              // guarded ALU op: guard mask + count fixup
	uMemFull               // unguarded memory op via execMemFast
	uMemGuard              // guarded memory op

	// Specialised memory arms (compilemem.go): register-addressed,
	// unguarded shared/global accesses with full-mask classification.
	uLdShared
	uStShared
	uLdGlobal
	uStGlobal

	uMovR

	uAddIRR
	uAddIRI
	uSubIRR
	uSubIRI
	uMulIRR
	uMulIRI
	uAndRR
	uAndRI
	uOrRR
	uOrRI
	uXorRR
	uXorRI
	uShlRR
	uShlRI
	uShrSRR
	uShrSRI
	uShrURR
	uShrURI

	uAddFRR
	uAddFRI
	uSubFRR
	uSubFRI
	uMulFRR
	uMulFRI
	uDivFRR
	uDivFRI

	uFmaFRRR
	uFmaIRRR
	uFmaIRIR

	uSetpRR
	uSetpRI
	uSelpRRR
	uCvtR

	uFmaFPair // two chained f32 fmas fused into one loop
)

// microOp is one lowered op (or fused pair). Bases are precomputed
// register-file offsets (reg * W); reg indices are kept for the uniform
// bit tests; d points back at the decoded op for the fallback paths.
type microOp struct {
	kind uKind

	dBase, aBase, bBase, cBase int
	dReg, aReg, bReg, cReg     int32

	imm  uint32
	immF float32
	off  uint32 // static byte offset of a memory access

	// Second op of a fused pair.
	d2Base, a2Base, b2Base int
	d2Reg, a2Reg, b2Reg    int32

	d  *decodedOp
	d2 *decodedOp
	pc int32 // for memory error wrapping
}

// countDelta is one aggregated dynOps increment for a segment execution.
type countDelta struct {
	idx int32
	n   int64
}

// compiledSeg is a compiled superinstruction.
type compiledSeg struct {
	uops      []microOp
	counts    []countDelta
	laneBase  int64 // warp width x op count: laneInstrs per full execution
	handBacks int64 // uALUFull micro-ops: PathCounts.HandBacks per execution
	W         int
}

// compileSeg lowers one fused segment. W is the SIMD width the program was
// built for (progKey).
func compileSeg(dk *decodedKernel, seg *tSeg, W int) *compiledSeg {
	// The dynamic-mix deltas were precomputed at fuse time (tSeg.counts —
	// mask-independent, shared with the interpreted path); only the
	// lane-instruction base depends on W.
	cs := &compiledSeg{W: W, counts: seg.counts}
	cs.laneBase = int64(seg.end-seg.start) * int64(W)
	for pc := int(seg.start); pc < int(seg.end); {
		if pc+1 < int(seg.end) {
			if u, ok := lowerFMAPair(dk, pc, W); ok {
				cs.uops = append(cs.uops, u)
				pc += 2
				continue
			}
		}
		u := lowerOp(dk, pc, W)
		if u.kind == uALUFull {
			cs.handBacks++
		}
		cs.uops = append(cs.uops, u)
		pc++
	}
	return cs
}

func lowerOp(dk *decodedKernel, pc, W int) microOp {
	d := &dk.ops[pc]
	u := microOp{d: d, pc: int32(pc)}
	u.dBase, u.dReg = int(d.dst)*W, d.dst

	if d.kind == dkMem {
		if d.guard >= 0 {
			u.kind = uMemGuard
			return u
		}
		u.kind = uMemFull
		a, aok := lowerOperand(&d.a, W)
		if !aok || !a.isReg {
			return u
		}
		u.aBase, u.aReg = a.base, a.reg
		u.off = uint32(d.off)
		switch {
		case d.mk == mkShared && d.op == ptx.OpLd:
			u.kind = uLdShared
		case d.mk == mkShared && d.op == ptx.OpSt:
			if b, bok := lowerOperand(&d.b, W); bok {
				u.kind = uStShared
				if b.isReg {
					u.bBase, u.bReg = b.base, b.reg
				} else {
					u.bReg, u.imm = -1, b.imm
				}
			}
		case d.mk == mkGlobal && d.op == ptx.OpLd:
			u.kind = uLdGlobal
		case d.mk == mkGlobal && d.op == ptx.OpSt:
			if b, bok := lowerOperand(&d.b, W); bok && b.isReg {
				u.kind = uStGlobal
				u.bBase, u.bReg = b.base, b.reg
			}
		}
		return u
	}
	if d.guard >= 0 {
		u.kind = uALUGuard
		return u
	}
	u.kind = uALUFull // default until a specialised arm matches

	a, aok := lowerOperand(&d.a, W)
	b, bok := lowerOperand(&d.b, W)
	c, cok := lowerOperand(&d.c, W)

	setRR := func(k uKind) {
		u.kind = k
		u.aBase, u.aReg = a.base, a.reg
		u.bBase, u.bReg = b.base, b.reg
	}
	setRI := func(k uKind, iv uint32) {
		u.kind = k
		u.aBase, u.aReg = a.base, a.reg
		u.bReg = -1
		u.imm, u.immF = iv, f32(iv)
	}
	// Normalise commutative binary ops so an immediate sits on the right.
	normalise := func() {
		if !a.isReg && b.isReg {
			a, b = b, a
		}
	}

	bin := func(rr, ri uKind, commutative bool) {
		if !aok || !bok {
			return
		}
		if commutative {
			normalise()
		}
		if !a.isReg {
			return
		}
		if b.isReg {
			setRR(rr)
		} else {
			setRI(ri, b.imm)
		}
	}

	switch d.ex {
	case exMov:
		if aok && a.isReg {
			u.kind = uMovR
			u.aBase, u.aReg = a.base, a.reg
		}
	case exAddI:
		bin(uAddIRR, uAddIRI, true)
	case exSubI:
		bin(uSubIRR, uSubIRI, false)
	case exMulI:
		bin(uMulIRR, uMulIRI, true)
	case exAnd:
		bin(uAndRR, uAndRI, true)
	case exOr:
		bin(uOrRR, uOrRI, true)
	case exXor:
		bin(uXorRR, uXorRI, true)
	case exShl:
		bin(uShlRR, uShlRI, false)
	case exShrS:
		bin(uShrSRR, uShrSRI, false)
	case exShrU:
		bin(uShrURR, uShrURI, false)
	case exAddF:
		bin(uAddFRR, uAddFRI, true)
	case exSubF:
		bin(uSubFRR, uSubFRI, false)
	case exMulF:
		bin(uMulFRR, uMulFRI, true)
	case exDivF:
		bin(uDivFRR, uDivFRI, false)
	case exSetp:
		bin(uSetpRR, uSetpRI, false)
	case exFmaF:
		if aok && bok && cok && a.isReg && b.isReg && c.isReg {
			u.kind = uFmaFRRR
			u.aBase, u.aReg = a.base, a.reg
			u.bBase, u.bReg = b.base, b.reg
			u.cBase, u.cReg = c.base, c.reg
		}
	case exFmaI:
		if aok && bok && cok && a.isReg && c.isReg {
			if b.isReg {
				u.kind = uFmaIRRR
				u.aBase, u.aReg = a.base, a.reg
				u.bBase, u.bReg = b.base, b.reg
				u.cBase, u.cReg = c.base, c.reg
			} else {
				u.kind = uFmaIRIR
				u.aBase, u.aReg = a.base, a.reg
				u.bReg = -1
				u.imm = b.imm
				u.cBase, u.cReg = c.base, c.reg
			}
		}
	case exSelp:
		if aok && bok && cok && a.isReg && b.isReg && c.isReg {
			u.kind = uSelpRRR
			u.aBase, u.aReg = a.base, a.reg
			u.bBase, u.bReg = b.base, b.reg
			u.cBase, u.cReg = c.base, c.reg
		}
	case exCvt:
		if aok && a.isReg {
			u.kind = uCvtR
			u.aBase, u.aReg = a.base, a.reg
		}
	}
	return u
}

type lOperand struct {
	isReg bool
	reg   int32
	base  int
	imm   uint32
}

func lowerOperand(o *dOperand, W int) (lOperand, bool) {
	switch o.kind {
	case doReg:
		return lOperand{isReg: true, reg: o.reg, base: int(o.reg) * W}, true
	case doImm:
		return lOperand{reg: -1, imm: o.val[0]}, true
	}
	return lOperand{}, false
}

// lowerFMAPair fuses the accumulate chain "d1 = a1*b1 + c1; d2 = a2*b2 +
// d1" (both f32 fma/mad, unguarded, all-register operands, d1 feeding
// only the addend of the second op). d1 is still stored — it is
// observable — but the second op reads the forwarded value instead of
// reloading and re-converting it.
func lowerFMAPair(dk *decodedKernel, pc, W int) (microOp, bool) {
	d1, d2 := &dk.ops[pc], &dk.ops[pc+1]
	if d1.kind != dkALU || d2.kind != dkALU || d1.ex != exFmaF || d2.ex != exFmaF {
		return microOp{}, false
	}
	if d1.guard >= 0 || d2.guard >= 0 {
		return microOp{}, false
	}
	for _, o := range []*dOperand{&d1.a, &d1.b, &d1.c, &d2.a, &d2.b, &d2.c} {
		if o.kind != doReg {
			return microOp{}, false
		}
	}
	if d2.c.reg != d1.dst || d2.a.reg == d1.dst || d2.b.reg == d1.dst {
		return microOp{}, false
	}
	return microOp{
		kind: uFmaFPair,
		d:    d1, d2: d2, pc: int32(pc),
		dBase: int(d1.dst) * W, dReg: d1.dst,
		aBase: int(d1.a.reg) * W, aReg: d1.a.reg,
		bBase: int(d1.b.reg) * W, bReg: d1.b.reg,
		cBase: int(d1.c.reg) * W, cReg: d1.c.reg,
		d2Base: int(d2.dst) * W, d2Reg: d2.dst,
		a2Base: int(d2.a.reg) * W, a2Reg: d2.a.reg,
		b2Base: int(d2.b.reg) * W, b2Reg: d2.b.reg,
	}, true
}

// uni2 / uni3 report whether every register source is warp-uniform
// (immediates, reg index -1, are uniform by construction).
func (w *fwarp) uni2(a, b int32) bool {
	return w.getUni(a) && (b < 0 || w.getUni(b))
}
func (w *fwarp) uni3(a, b, c int32) bool {
	return w.getUni(a) && (b < 0 || w.getUni(b)) && w.getUni(c)
}

// exec runs the compiled segment. The caller guarantees mask covers every
// populated lane of a full-width warp (mask == fullLaneMask(W) ==
// w.fullMask); partially-masked executions take the interpreted path
// instead. Arithmetic in the vector arms is expression-identical to
// execALUFast with every operand viewed as a vector — sound because
// registers are always fully materialised (a uniform register holds the
// same value in all W lanes).
func (cs *compiledSeg) exec(w *fwarp, cu *cuState, mask uint64) error {
	for _, cd := range cs.counts {
		cu.dynOps[cd.idx] += cd.n
	}
	cu.laneInstrs += cs.laneBase
	cu.path.HandBacks += cs.handBacks
	W := cs.W
	regs := w.regs
	for i := range cs.uops {
		u := &cs.uops[i]

		switch u.kind {
		case uALUFull:
			w.execALUFast(u.d, mask)
			continue
		case uALUGuard:
			active := w.guardMaskVec(u.d, mask)
			cu.laneInstrs += int64(mem.ActiveLanes(active)) - int64(W)
			if active != 0 {
				w.execALUFast(u.d, active)
			}
			continue
		case uMemFull:
			if err := w.execMemFast(u.d, mask); err != nil {
				return w.wrapMemErr(u.pc, err)
			}
			continue
		case uMemGuard:
			active := w.guardMaskVec(u.d, mask)
			cu.laneInstrs += int64(mem.ActiveLanes(active)) - int64(W)
			if active != 0 {
				if err := w.execMemFast(u.d, active); err != nil {
					return w.wrapMemErr(u.pc, err)
				}
			}
			continue
		case uLdShared:
			if err := w.ldSharedFull(u); err != nil {
				return w.wrapMemErr(u.pc, err)
			}
			continue
		case uStShared:
			if err := w.stSharedFull(u); err != nil {
				return w.wrapMemErr(u.pc, err)
			}
			continue
		case uLdGlobal:
			if err := w.ldGlobalFull(u); err != nil {
				return w.wrapMemErr(u.pc, err)
			}
			continue
		case uStGlobal:
			if err := w.stGlobalFull(u); err != nil {
				return w.wrapMemErr(u.pc, err)
			}
			continue
		case uFmaFPair:
			if w.uni3(u.aReg, u.bReg, u.cReg) || w.uni2(u.a2Reg, u.b2Reg) {
				// Either op would take the broadcast path: run them apart.
				cu.path.UniFallbacks += 2
				w.execALUFast(u.d, mask)
				w.execALUFast(u.d2, mask)
				continue
			}
			dst := regs[u.dBase : u.dBase+W]
			a1 := regs[u.aBase : u.aBase+W][:len(dst)]
			b1 := regs[u.bBase : u.bBase+W][:len(dst)]
			c1 := regs[u.cBase : u.cBase+W][:len(dst)]
			a2 := regs[u.a2Base : u.a2Base+W][:len(dst)]
			b2 := regs[u.b2Base : u.b2Base+W][:len(dst)]
			d2 := regs[u.d2Base : u.d2Base+W][:len(dst)]
			for l := range dst {
				r1 := fbits(f32(a1[l])*f32(b1[l]) + f32(c1[l]))
				dst[l] = r1
				d2[l] = fbits(f32(a2[l])*f32(b2[l]) + f32(r1))
			}
			w.clearUni(u.dReg)
			w.clearUni(u.d2Reg)
			continue
		}

		// Specialised single-op arms: all-uniform sources take the fast
		// engine's compute-once-broadcast path (which also sets the
		// destination's uniform bit exactly as it would have).
		switch u.kind {
		case uMovR, uCvtR:
			if w.getUni(u.aReg) {
				cu.path.UniFallbacks++
				w.execALUFast(u.d, mask)
				continue
			}
		case uFmaFRRR, uFmaIRRR, uSelpRRR:
			if w.uni3(u.aReg, u.bReg, u.cReg) {
				cu.path.UniFallbacks++
				w.execALUFast(u.d, mask)
				continue
			}
		case uFmaIRIR:
			if w.uni2(u.aReg, u.cReg) {
				cu.path.UniFallbacks++
				w.execALUFast(u.d, mask)
				continue
			}
		default:
			if w.uni2(u.aReg, u.bReg) {
				cu.path.UniFallbacks++
				w.execALUFast(u.d, mask)
				continue
			}
		}

		dst := regs[u.dBase : u.dBase+W]
		av := regs[u.aBase : u.aBase+W][:len(dst)]
		switch u.kind {
		case uMovR:
			copy(dst, av)
		case uAddIRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] + bv[l]
			}
		case uAddIRI:
			iv := u.imm
			for l := range dst {
				dst[l] = av[l] + iv
			}
		case uSubIRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] - bv[l]
			}
		case uSubIRI:
			iv := u.imm
			for l := range dst {
				dst[l] = av[l] - iv
			}
		case uMulIRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] * bv[l]
			}
		case uMulIRI:
			iv := u.imm
			for l := range dst {
				dst[l] = av[l] * iv
			}
		case uAndRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] & bv[l]
			}
		case uAndRI:
			iv := u.imm
			for l := range dst {
				dst[l] = av[l] & iv
			}
		case uOrRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] | bv[l]
			}
		case uOrRI:
			iv := u.imm
			for l := range dst {
				dst[l] = av[l] | iv
			}
		case uXorRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] ^ bv[l]
			}
		case uXorRI:
			iv := u.imm
			for l := range dst {
				dst[l] = av[l] ^ iv
			}
		case uShlRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] << (bv[l] & 31)
			}
		case uShlRI:
			s := u.imm & 31
			for l := range dst {
				dst[l] = av[l] << s
			}
		case uShrSRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = uint32(int32(av[l]) >> (bv[l] & 31))
			}
		case uShrSRI:
			s := u.imm & 31
			for l := range dst {
				dst[l] = uint32(int32(av[l]) >> s)
			}
		case uShrURR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l] >> (bv[l] & 31)
			}
		case uShrURI:
			s := u.imm & 31
			for l := range dst {
				dst[l] = av[l] >> s
			}
		case uAddFRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = fbits(f32(av[l]) + f32(bv[l]))
			}
		case uAddFRI:
			fv := u.immF
			for l := range dst {
				dst[l] = fbits(f32(av[l]) + fv)
			}
		case uSubFRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = fbits(f32(av[l]) - f32(bv[l]))
			}
		case uSubFRI:
			fv := u.immF
			for l := range dst {
				dst[l] = fbits(f32(av[l]) - fv)
			}
		case uMulFRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = fbits(f32(av[l]) * f32(bv[l]))
			}
		case uMulFRI:
			fv := u.immF
			for l := range dst {
				dst[l] = fbits(f32(av[l]) * fv)
			}
		case uDivFRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			for l := range dst {
				dst[l] = fbits(f32(av[l]) / f32(bv[l]))
			}
		case uDivFRI:
			fv := u.immF
			for l := range dst {
				dst[l] = fbits(f32(av[l]) / fv)
			}
		case uFmaFRRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			cv := regs[u.cBase : u.cBase+W][:len(dst)]
			for l := range dst {
				dst[l] = fbits(f32(av[l])*f32(bv[l]) + f32(cv[l]))
			}
		case uFmaIRRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			cv := regs[u.cBase : u.cBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l]*bv[l] + cv[l]
			}
		case uFmaIRIR:
			iv := u.imm
			cv := regs[u.cBase : u.cBase+W][:len(dst)]
			for l := range dst {
				dst[l] = av[l]*iv + cv[l]
			}
		case uSetpRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			cmp, typ := u.d.cmp, u.d.typ
			if typ == ptx.F32 {
				for l := range dst {
					dst[l] = boolToU32(compare(cmp, typ, av[l], bv[l]))
				}
				break
			}
			// Integer compares hoist the (type, op) dispatch out of the lane
			// loop: signed order is unsigned order with the sign bit flipped,
			// and every non-F32/S32 type compares unsigned (exactly compare's
			// default arm).
			var flip uint32
			if typ == ptx.S32 {
				flip = 1 << 31
			}
			switch cmp {
			case ptx.CmpEQ:
				for l := range dst {
					dst[l] = boolToU32(av[l] == bv[l])
				}
			case ptx.CmpNE:
				for l := range dst {
					dst[l] = boolToU32(av[l] != bv[l])
				}
			case ptx.CmpLT:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip < bv[l]^flip)
				}
			case ptx.CmpLE:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip <= bv[l]^flip)
				}
			case ptx.CmpGT:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip > bv[l]^flip)
				}
			case ptx.CmpGE:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip >= bv[l]^flip)
				}
			}
		case uSetpRI:
			iv := u.imm
			cmp, typ := u.d.cmp, u.d.typ
			if typ == ptx.F32 {
				for l := range dst {
					dst[l] = boolToU32(compare(cmp, typ, av[l], iv))
				}
				break
			}
			var flip uint32
			if typ == ptx.S32 {
				flip = 1 << 31
			}
			fiv := iv ^ flip
			switch cmp {
			case ptx.CmpEQ:
				for l := range dst {
					dst[l] = boolToU32(av[l] == iv)
				}
			case ptx.CmpNE:
				for l := range dst {
					dst[l] = boolToU32(av[l] != iv)
				}
			case ptx.CmpLT:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip < fiv)
				}
			case ptx.CmpLE:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip <= fiv)
				}
			case ptx.CmpGT:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip > fiv)
				}
			case ptx.CmpGE:
				for l := range dst {
					dst[l] = boolToU32(av[l]^flip >= fiv)
				}
			}
		case uSelpRRR:
			bv := regs[u.bBase : u.bBase+W][:len(dst)]
			cv := regs[u.cBase : u.cBase+W][:len(dst)]
			for l := range dst {
				if cv[l] != 0 {
					dst[l] = av[l]
				} else {
					dst[l] = bv[l]
				}
			}
		case uCvtR:
			to, from := u.d.typ, u.d.srcTyp
			for l := range dst {
				dst[l] = convert(to, from, av[l])
			}
		}
		w.clearUni(u.dReg)
	}
	return nil
}

func (w *fwarp) wrapMemErr(pc int32, err error) error {
	in := &w.b.k.Instrs[pc]
	return fmt.Errorf("sim: %s: pc %d (%s): %w", w.b.k.Name, pc, in.Mnemonic(), err)
}
