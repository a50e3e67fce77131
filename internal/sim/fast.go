package sim

import (
	"fmt"
	"math"
	"math/bits"

	"gpucmp/internal/ptx"
)

// This file is the production engine's block set-up and per-op execution:
// it runs the predecoded program from decode.go over the per-CU arena from
// arena.go (the warp loop that dispatches the ops is in threaded.go). It is
// observationally identical to the reference interpreter in warp.go — same
// results, same traces, same error strings, same watchdog verdicts — and
// that equivalence is pinned by the corpus-replay gate in internal/fuzz.
// Three things make the per-op work fast:
//
//  1. The op x type switch runs once per warp instruction (execALUFast)
//     instead of once per lane, and operands are aliased in place instead
//     of copied into scratch arrays.
//  2. Registers carry a per-warp uniformity bit (all 64 lanes hold one
//     value). When a warp executes with its full populated mask and every
//     source operand is uniform, the result is computed once and
//     broadcast; the bit is purely advisory (registers stay fully
//     materialised), so a conservative clear can cost speed but never
//     correctness. Broadcasting may write lanes beyond the populated
//     mask, which the reference leaves untouched — those lanes are
//     unobservable (never active, always masked out of coalescing and
//     guards), which is why traces cannot change.
//  3. Memory accesses with a uniform address short-circuit the coalescing
//     query (one segment, one distinct address, bank factor 1 — exactly
//     what the reference derives per lane) and perform a single backing
//     access; non-uniform accesses classify the warp in one pass through
//     the mem.*Fast routines.
func (cu *cuState) runBlockFast(prog *tProgram, k *ptx.Kernel, grid, block Dim3, bx, by int) error {
	W := cu.dev.Arch.SIMDWidth
	if W > 64 {
		return fmt.Errorf("sim: SIMD width %d exceeds the 64-lane model limit", W)
	}
	ar := cu.arena
	fb := &ar.blk
	fb.cu = cu
	fb.prog = prog
	fb.k = k
	fb.grid, fb.block = grid, block
	fb.ctaidX, fb.ctaidY = uint32(bx), uint32(by)
	fb.W = W
	fb.steps = 0
	fb.budget = cu.dev.StepBudget
	fb.abort = cu.abort
	fb.spec[ptx.SrNtidX][0] = uint32(block.X)
	fb.spec[ptx.SrNtidY][0] = uint32(block.Y)
	fb.spec[ptx.SrCtaidX][0] = fb.ctaidX
	fb.spec[ptx.SrCtaidY][0] = fb.ctaidY
	fb.spec[ptx.SrNctaidX][0] = uint32(grid.X)
	fb.spec[ptx.SrNctaidY][0] = uint32(grid.Y)
	fb.spec[ptx.SrWarpSize][0] = uint32(W)

	fb.shared = ar.shared[:(k.SharedBytes+3)/4]
	clear(fb.shared)

	threads := block.Count()
	nwarps := (threads + W - 1) / W
	localWords := (k.LocalBytes + 3) / 4
	regWords := k.NumRegs * W
	uniWords := (k.NumRegs + 63) / 64
	fb.warps = ar.warps[:nwarps]

	for wi := 0; wi < nwarps; wi++ {
		w := &fb.warps[wi]
		w.b = fb
		w.warpBase = wi * W
		w.regs = ar.regs[wi*regWords : (wi+1)*regWords]
		clear(w.regs)
		w.localWords = localWords
		if localWords > 0 {
			w.local = ar.local[wi*localWords*W : (wi+1)*localWords*W]
			clear(w.local)
		} else {
			w.local = nil
		}
		w.uni = ar.uni[wi*uniWords : (wi+1)*uniWords]
		for i := range w.uni {
			w.uni[i] = ^uint64(0) // zero-initialised registers are uniform
		}
		var mask uint64
		uniX, uniY := true, true
		var tx0, ty0 uint32
		for l := 0; l < W; l++ {
			t := w.warpBase + l
			if t >= threads {
				break
			}
			mask |= 1 << uint(l)
			x, y := uint32(t%block.X), uint32(t/block.X)
			w.tidx[l], w.tidy[l] = x, y
			if l == 0 {
				tx0, ty0 = x, y
			} else {
				if x != tx0 {
					uniX = false
				}
				if y != ty0 {
					uniY = false
				}
			}
		}
		w.fullMask = mask
		w.tidUni[0], w.tidUni[1] = uniX, uniY
		w.frames = append(w.frames[:0], frame{pc: 0, mask: mask, reconv: len(prog.dk.ops)})
		w.atBarrier, w.done = false, false
	}

	// The scheduler loop mirrors runBlock: round-robin every live warp to
	// its next barrier or completion, then release the barrier together.
	for {
		remaining := 0
		for wi := range fb.warps {
			w := &fb.warps[wi]
			if w.done {
				continue
			}
			remaining++
			if w.atBarrier {
				continue
			}
			if err := w.runThreaded(); err != nil {
				return err
			}
		}
		if remaining == 0 {
			return nil
		}
		released := false
		for wi := range fb.warps {
			w := &fb.warps[wi]
			if !w.done && w.atBarrier {
				w.atBarrier = false
				released = true
			}
		}
		if !released {
			allDone := true
			for wi := range fb.warps {
				if !fb.warps[wi].done {
					allDone = false
				}
			}
			if allDone {
				return nil
			}
			return fmt.Errorf("sim: %s: scheduling deadlock in block (%d,%d)", k.Name, bx, by)
		}
	}
}

// Uniform-bit helpers. The invariant is one-directional: a set bit means
// all 64 lanes of the register hold one value; a clear bit means nothing.
func (w *fwarp) getUni(r int32) bool { return w.uni[r>>6]>>(uint(r)&63)&1 != 0 }
func (w *fwarp) setUni(r int32)      { w.uni[r>>6] |= 1 << (uint(r) & 63) }
func (w *fwarp) clearUni(r int32)    { w.uni[r>>6] &^= 1 << (uint(r) & 63) }

// srcv is a resolved source operand: lane l's value is p[l&m], with m = 0
// aliasing a uniform scalar and m = 63 a per-lane vector.
type srcv struct {
	p []uint32
	m int
}

var zeroWord = [1]uint32{}

// resolve views an operand in place — no copying. Uniform registers and
// tids are exposed as scalars so downstream fast paths can detect them
// with a single mask test.
func (w *fwarp) resolve(o *dOperand) srcv {
	switch o.kind {
	case doImm:
		return srcv{p: o.val[:], m: 0}
	case doReg:
		base := int(o.reg) * w.b.W
		s := srcv{p: w.regs[base : base+w.b.W]}
		if !w.getUni(o.reg) {
			s.m = 63
		}
		return s
	case doTidX:
		if w.tidUni[0] {
			return srcv{p: w.tidx[:1], m: 0}
		}
		return srcv{p: w.tidx[:w.b.W], m: 63}
	case doTidY:
		if w.tidUni[1] {
			return srcv{p: w.tidy[:1], m: 0}
		}
		return srcv{p: w.tidy[:w.b.W], m: 63}
	case doSpec:
		return srcv{p: w.b.spec[o.spec][:], m: 0}
	default:
		return srcv{p: zeroWord[:], m: 0}
	}
}

// resolveSrc is resolve plus aliasing protection: a uniform register
// source that is also the destination would be clobbered by lane 0's
// write before later lanes read it (the reference copies operands first),
// so its scalar is snapshotted into the slot's scratch word. Vector
// sources are safe in place: lane l is read before lane l is written.
func (w *fwarp) resolveSrc(o *dOperand, dst int32, buf *[1]uint32) srcv {
	s := w.resolve(o)
	if s.m == 0 && o.kind == doReg && o.reg == dst {
		buf[0] = s.p[0]
		return srcv{p: buf[:], m: 0}
	}
	return s
}

// guardMask applies the decoded guard predicate to the frame mask,
// checking one lane when the predicate register is warp-uniform.
func (w *fwarp) guardMask(d *decodedOp, mask uint64) uint64 {
	W := w.b.W
	base := int(d.guard) * W
	if w.getUni(d.guard) {
		if (w.regs[base] != 0) != d.guardNeg {
			return mask
		}
		return 0
	}
	var out uint64
	for m := mask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		if (w.regs[base+l] != 0) != d.guardNeg {
			out |= 1 << uint(l)
		}
	}
	return out
}

// execALUFast evaluates one ALU instruction. The switch is hoisted out of
// the lane loop; when the warp is fully active and every source is
// uniform, the loop body runs once for lane 0 and the result is broadcast.
// Every arithmetic expression below is textually identical to its
// counterpart in the reference execALU, so both engines compile to the
// same floating-point code.
func (w *fwarp) execALUFast(d *decodedOp, active uint64) {
	W := w.b.W
	a := w.resolveSrc(&d.a, d.dst, &w.sbuf[0])
	var b, c srcv
	if d.nsrc >= 2 {
		b = w.resolveSrc(&d.b, d.dst, &w.sbuf[1])
	}
	if d.nsrc >= 3 {
		c = w.resolveSrc(&d.c, d.dst, &w.sbuf[2])
	}
	dst := w.regs[int(d.dst)*W : int(d.dst)*W+W]

	// The lane loops below walk the set bits of act directly, so sparse
	// masks (a mostly-converged-off branch arm, a guard that disables most
	// of the warp) cost only their active lanes. The uniform case funnels
	// through the same loops with act = 1: one iteration for lane 0, then
	// the broadcast at the bottom fans the value out.
	uniform := active == w.fullMask && a.m|b.m|c.m == 0
	act := active
	if uniform {
		act = 1
	}

	switch d.ex {
	case exMov, exDefault:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m]
		}
	case exAddF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(f32(a.p[l&a.m]) + f32(b.p[l&b.m]))
		}
	case exAddI:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] + b.p[l&b.m]
		}
	case exSubF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(f32(a.p[l&a.m]) - f32(b.p[l&b.m]))
		}
	case exSubI:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] - b.p[l&b.m]
		}
	case exMulF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(f32(a.p[l&a.m]) * f32(b.p[l&b.m]))
		}
	case exMulI:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] * b.p[l&b.m]
		}
	case exDivF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(f32(a.p[l&a.m]) / f32(b.p[l&b.m]))
		}
	case exDivS:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if bv == 0 {
				dst[l] = ^uint32(0)
			} else {
				dst[l] = uint32(int32(av) / int32(bv))
			}
		}
	case exDivU:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if bv == 0 {
				dst[l] = ^uint32(0)
			} else {
				dst[l] = av / bv
			}
		}
	case exRemS:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if bv == 0 {
				dst[l] = av
			} else {
				dst[l] = uint32(int32(av) % int32(bv))
			}
		}
	case exRemU:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if bv == 0 {
				dst[l] = av
			} else {
				dst[l] = av % bv
			}
		}
	case exFmaF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(f32(a.p[l&a.m])*f32(b.p[l&b.m]) + f32(c.p[l&c.m]))
		}
	case exFmaI:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m]*b.p[l&b.m] + c.p[l&c.m]
		}
	case exNegF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(-f32(a.p[l&a.m]))
		}
	case exNegI:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = -a.p[l&a.m]
		}
	case exAbsF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Abs(float64(f32(a.p[l&a.m])))))
		}
	case exAbsI:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av := a.p[l&a.m]
			if int32(av) < 0 {
				dst[l] = uint32(-int32(av))
			} else {
				dst[l] = av
			}
		}
	case exMinF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Min(float64(f32(a.p[l&a.m])), float64(f32(b.p[l&b.m])))))
		}
	case exMinS:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if int32(av) < int32(bv) {
				dst[l] = av
			} else {
				dst[l] = bv
			}
		}
	case exMinU:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if av < bv {
				dst[l] = av
			} else {
				dst[l] = bv
			}
		}
	case exMaxF:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Max(float64(f32(a.p[l&a.m])), float64(f32(b.p[l&b.m])))))
		}
	case exMaxS:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if int32(av) > int32(bv) {
				dst[l] = av
			} else {
				dst[l] = bv
			}
		}
	case exMaxU:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			av, bv := a.p[l&a.m], b.p[l&b.m]
			if av > bv {
				dst[l] = av
			} else {
				dst[l] = bv
			}
		}
	case exSqrt:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Sqrt(float64(f32(a.p[l&a.m])))))
		}
	case exRsqrt:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(1 / math.Sqrt(float64(f32(a.p[l&a.m])))))
		}
	case exSin:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Sin(float64(f32(a.p[l&a.m])))))
		}
	case exCos:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Cos(float64(f32(a.p[l&a.m])))))
		}
	case exEx2:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Exp2(float64(f32(a.p[l&a.m])))))
		}
	case exLg2:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = fbits(float32(math.Log2(float64(f32(a.p[l&a.m])))))
		}
	case exAnd:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] & b.p[l&b.m]
		}
	case exOr:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] | b.p[l&b.m]
		}
	case exXor:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] ^ b.p[l&b.m]
		}
	case exNot:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = ^a.p[l&a.m]
		}
	case exShl:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] << (b.p[l&b.m] & 31)
		}
	case exShrS:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = uint32(int32(a.p[l&a.m]) >> (b.p[l&b.m] & 31))
		}
	case exShrU:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = a.p[l&a.m] >> (b.p[l&b.m] & 31)
		}
	case exSetp:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = boolToU32(compare(d.cmp, d.typ, a.p[l&a.m], b.p[l&b.m]))
		}
	case exSelp:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if c.p[l&c.m] != 0 {
				dst[l] = a.p[l&a.m]
			} else {
				dst[l] = b.p[l&b.m]
			}
		}
	case exCvt:
		for m := act; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			dst[l] = convert(d.typ, d.srcTyp, a.p[l&a.m])
		}
	}

	if uniform {
		v := dst[0]
		for l := 1; l < W; l++ {
			dst[l] = v
		}
		w.setUni(d.dst)
	} else {
		w.clearUni(d.dst)
	}
}
