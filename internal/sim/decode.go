package sim

import "gpucmp/internal/ptx"

// This file lowers a ptx.Kernel once per (kernel, SIMD width) into a
// dense table of decodedOp — the predecoded program the production
// interpreter executes (fuse.go groups it into segments, threaded.go runs
// them). Decoding resolves everything the reference interpreter
// re-derives on every dynamic instruction: which top-level
// handler runs (branch / barrier / ret / memory / ALU), which memory space
// a load or store dispatches to, the exact op x type execution kind (so
// the inner loop switches once per warp instruction instead of once per
// lane), how many source operands the instruction reads, and each
// operand's kind (zero, immediate, register, tid, or block-constant
// special register).

// Top-level dispatch kinds.
const (
	dkALU uint8 = iota
	dkBra
	dkBar
	dkRet
	dkMem
)

// Memory-space dispatch kinds (resolved from Op x Space at decode time).
const (
	mkBad uint8 = iota
	mkGlobal
	mkAtomGlobal
	mkTex
	mkConst
	mkShared
	mkLocal
)

// execKind is the fully resolved op x type of an ALU instruction; each
// kind has its own tight per-lane loop in execALUFast.
type execKind uint8

const (
	exDefault execKind = iota // unknown op: r = av (mirrors the reference)
	exMov
	exAddF
	exAddI
	exSubF
	exSubI
	exMulF
	exMulI
	exDivF
	exDivS
	exDivU
	exRemS
	exRemU
	exFmaF
	exFmaI
	exNegF
	exNegI
	exAbsF
	exAbsI
	exMinF
	exMinS
	exMinU
	exMaxF
	exMaxS
	exMaxU
	exSqrt
	exRsqrt
	exSin
	exCos
	exEx2
	exLg2
	exAnd
	exOr
	exXor
	exNot
	exShl
	exShrS
	exShrU
	exSetp
	exSelp
	exCvt
)

// Operand kinds.
const (
	doZero uint8 = iota // absent register slot: reads as 0
	doImm
	doReg
	doTidX
	doTidY
	doSpec // block-constant special register (ntid/ctaid/nctaid/warpsize)
)

// dOperand is one decoded source operand. Immediates keep their value in a
// one-element array so the interpreter can alias it as a scalar slice
// without copying.
type dOperand struct {
	kind uint8
	reg  int32
	spec ptx.SpecialReg
	val  [1]uint32
}

// decodedOp is one predecoded instruction. All branch targets, register
// indices and dispatch tags are resolved; the interpreter never touches
// ptx.Instruction on the hot path (only to render a mnemonic when an
// execution error needs wrapping).
type decodedOp struct {
	kind     uint8
	mk       uint8
	ex       execKind
	nsrc     uint8
	guardNeg bool

	op     ptx.Opcode
	space  ptx.Space
	typ    ptx.ScalarType
	srcTyp ptx.ScalarType
	cmp    ptx.CmpOp
	atom   ptx.AtomOp

	guard int32 // -1 = unguarded
	dst   int32
	off   int32

	target, join int32

	a, b, c dOperand
}

// decodedKernel is the predecoded program for one kernel.
type decodedKernel struct {
	ops []decodedOp
}

func decodeOperand(o ptx.Operand) dOperand {
	switch {
	case o.IsImm:
		return dOperand{kind: doImm, val: [1]uint32{o.Imm}}
	case o.IsSpec:
		switch o.Spec {
		case ptx.SrTidX:
			return dOperand{kind: doTidX}
		case ptx.SrTidY:
			return dOperand{kind: doTidY}
		case ptx.SrNtidX, ptx.SrNtidY, ptx.SrCtaidX, ptx.SrCtaidY,
			ptx.SrNctaidX, ptx.SrNctaidY, ptx.SrWarpSize:
			return dOperand{kind: doSpec, spec: o.Spec}
		default:
			// The reference fetchSpecial fills 0 for unknown registers.
			return dOperand{kind: doZero}
		}
	case o.Reg == ptx.NoReg:
		return dOperand{kind: doZero}
	default:
		return dOperand{kind: doReg, reg: int32(o.Reg)}
	}
}

// aluKind resolves op x type into an execKind plus the number of source
// operands the reference interpreter fetches for it.
func aluKind(in *ptx.Instruction) (execKind, uint8) {
	isF := in.Typ == ptx.F32
	isS := in.Typ == ptx.S32
	pick2 := func(f, i execKind) (execKind, uint8) {
		if isF {
			return f, 2
		}
		return i, 2
	}
	switch in.Op {
	case ptx.OpMov:
		return exMov, 1
	case ptx.OpAdd:
		return pick2(exAddF, exAddI)
	case ptx.OpSub:
		return pick2(exSubF, exSubI)
	case ptx.OpMul:
		return pick2(exMulF, exMulI)
	case ptx.OpDiv:
		switch {
		case isF:
			return exDivF, 2
		case isS:
			return exDivS, 2
		default:
			return exDivU, 2
		}
	case ptx.OpRem:
		if isS {
			return exRemS, 2
		}
		return exRemU, 2
	case ptx.OpFma, ptx.OpMad:
		if isF {
			return exFmaF, 3
		}
		return exFmaI, 3
	case ptx.OpNeg:
		if isF {
			return exNegF, 1
		}
		return exNegI, 1
	case ptx.OpAbs:
		if isF {
			return exAbsF, 1
		}
		return exAbsI, 1
	case ptx.OpMin:
		switch {
		case isF:
			return exMinF, 2
		case isS:
			return exMinS, 2
		default:
			return exMinU, 2
		}
	case ptx.OpMax:
		switch {
		case isF:
			return exMaxF, 2
		case isS:
			return exMaxS, 2
		default:
			return exMaxU, 2
		}
	case ptx.OpSqrt:
		return exSqrt, 1
	case ptx.OpRsqrt:
		return exRsqrt, 1
	case ptx.OpSin:
		return exSin, 1
	case ptx.OpCos:
		return exCos, 1
	case ptx.OpEx2:
		return exEx2, 1
	case ptx.OpLg2:
		return exLg2, 1
	case ptx.OpAnd:
		return exAnd, 2
	case ptx.OpOr:
		return exOr, 2
	case ptx.OpXor:
		return exXor, 2
	case ptx.OpNot:
		return exNot, 1
	case ptx.OpShl:
		return exShl, 2
	case ptx.OpShr:
		if isS {
			return exShrS, 2
		}
		return exShrU, 2
	case ptx.OpSetp:
		return exSetp, 2
	case ptx.OpSelp:
		return exSelp, 3
	case ptx.OpCvt:
		return exCvt, 1
	default:
		return exDefault, 2
	}
}

func decodeKernel(k *ptx.Kernel) *decodedKernel {
	ops := make([]decodedOp, len(k.Instrs))
	for i := range k.Instrs {
		in := &k.Instrs[i]
		d := &ops[i]
		d.op = in.Op
		d.space = in.Space
		d.typ, d.srcTyp = in.Typ, in.SrcTyp
		d.cmp, d.atom = in.Cmp, in.Atom
		d.guard = int32(in.GuardPred)
		d.guardNeg = in.GuardNeg
		d.dst = int32(in.Dst)
		d.off = in.Off
		d.target, d.join = int32(in.Target), int32(in.Join)

		switch in.Op {
		case ptx.OpBra:
			d.kind = dkBra
		case ptx.OpBar:
			d.kind = dkBar
		case ptx.OpRet:
			d.kind = dkRet
		case ptx.OpLd, ptx.OpSt, ptx.OpTex, ptx.OpAtom:
			d.kind = dkMem
			d.a = decodeOperand(in.Src[0])
			d.b = decodeOperand(in.Src[1])
			switch in.Space {
			case ptx.SpaceGlobal:
				if in.Op == ptx.OpAtom {
					d.mk = mkAtomGlobal
				} else {
					d.mk = mkGlobal
				}
			case ptx.SpaceTex:
				d.mk = mkTex
			case ptx.SpaceConst, ptx.SpaceParam:
				d.mk = mkConst
			case ptx.SpaceShared:
				d.mk = mkShared
			case ptx.SpaceLocal:
				d.mk = mkLocal
			default:
				d.mk = mkBad
			}
		default:
			d.kind = dkALU
			d.ex, d.nsrc = aluKind(in)
			d.a = decodeOperand(in.Src[0])
			if d.nsrc >= 2 {
				d.b = decodeOperand(in.Src[1])
			}
			if d.nsrc >= 3 {
				d.c = decodeOperand(in.Src[2])
			}
		}
	}
	return &decodedKernel{ops: ops}
}
