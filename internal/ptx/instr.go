package ptx

import (
	"fmt"
	"strconv"
)

// ScalarType is the operand interpretation of an instruction. All registers
// are 32-bit slots; the type decides how their bit patterns are combined.
type ScalarType int

const (
	B32  ScalarType = iota // raw bits
	U32                    // unsigned integer
	S32                    // signed integer
	F32                    // IEEE-754 single precision
	Pred                   // predicate (0 or 1)
)

// String returns the PTX type suffix.
func (t ScalarType) String() string {
	switch t {
	case B32:
		return "b32"
	case U32:
		return "u32"
	case S32:
		return "s32"
	case F32:
		return "f32"
	case Pred:
		return "pred"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// Space is a PTX state space for loads, stores and atomics.
type Space int

const (
	SpaceNone   Space = iota
	SpaceParam        // kernel parameter bank (CUDA style)
	SpaceConst        // constant memory
	SpaceGlobal       // device global memory
	SpaceShared       // per-block shared (OpenCL: local) memory
	SpaceLocal        // per-thread local (spill) memory
	SpaceTex          // texture path (reads only, through the texture cache)
)

// String returns the PTX space suffix.
func (s Space) String() string {
	switch s {
	case SpaceNone:
		return ""
	case SpaceParam:
		return "param"
	case SpaceConst:
		return "const"
	case SpaceGlobal:
		return "global"
	case SpaceShared:
		return "shared"
	case SpaceLocal:
		return "local"
	case SpaceTex:
		return "tex"
	default:
		return fmt.Sprintf("space(%d)", int(s))
	}
}

// Reg is a virtual register index. NoReg marks an absent register operand.
type Reg int32

// NoReg marks an unused register slot (e.g. no guard predicate).
const NoReg Reg = -1

// Operand is a register, a 32-bit immediate (raw bit pattern), or a
// read-only special register.
type Operand struct {
	IsImm  bool
	IsSpec bool
	Reg    Reg
	Imm    uint32
	Spec   SpecialReg
}

// Sp returns a special-register operand.
func Sp(s SpecialReg) Operand { return Operand{IsSpec: true, Spec: s} }

// R returns a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// ImmU returns an unsigned-integer immediate operand.
func ImmU(v uint32) Operand { return Operand{IsImm: true, Imm: v} }

// ImmI returns a signed-integer immediate operand.
func ImmI(v int32) Operand { return Operand{IsImm: true, Imm: uint32(v)} }

// String renders the operand as PTX text.
func (o Operand) String() string { return string(o.appendTo(nil)) }

// appendTo appends the operand's PTX text to b.
func (o Operand) appendTo(b []byte) []byte {
	switch {
	case o.IsImm:
		return strconv.AppendUint(append(b, "0x"...), uint64(o.Imm), 16)
	case o.IsSpec:
		return append(b, o.Spec.String()...)
	default:
		return appendReg(b, "%r", o.Reg)
	}
}

// appendReg appends a register name: prefix ("%r" or "%p") and index.
func appendReg(b []byte, prefix string, r Reg) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(r), 10)
}

// Instruction is one virtual-ISA instruction. Loads and stores address
// memory as Src[0] (base register, a byte address) plus Off. Branches carry
// a Target pc and the Join pc (the immediate post-dominator) used by the
// SIMT reconvergence stack.
type Instruction struct {
	Op     Opcode
	Typ    ScalarType
	SrcTyp ScalarType // cvt only: source interpretation
	Cmp    CmpOp      // setp only
	Atom   AtomOp     // atom only

	Dst Reg
	Src [3]Operand

	Space Space // ld/st/atom/tex
	Off   int32 // byte offset for ld/st/atom

	Target int // bra: target pc
	Join   int // bra: reconvergence pc

	// Guard predicate: when GuardPred != NoReg the instruction only
	// executes in lanes where the predicate (xor GuardNeg) is true.
	GuardPred Reg
	GuardNeg  bool
}

// NewInstruction returns an instruction with no guard predicate.
func NewInstruction(op Opcode) Instruction {
	return Instruction{Op: op, Dst: NoReg, GuardPred: NoReg,
		Src: [3]Operand{{Reg: NoReg}, {Reg: NoReg}, {Reg: NoReg}}}
}

// Mnemonic returns the dotted PTX-style mnemonic, e.g. "ld.global.f32".
func (in *Instruction) Mnemonic() string { return string(in.appendMnemonic(nil)) }

func (in *Instruction) appendMnemonic(b []byte) []byte {
	b = append(b, in.Op.String()...)
	switch in.Op {
	case OpLd, OpSt:
		b = append(append(b, '.'), in.Space.String()...)
	case OpTex:
		b = append(b, ".1d"...)
	case OpAtom:
		b = append(append(b, '.'), in.Space.String()...)
		b = append(append(b, '.'), in.Atom.String()...)
	case OpSetp:
		b = append(append(b, '.'), in.Cmp.String()...)
	case OpBar:
		b = append(b, ".sync"...)
	}
	switch in.Op {
	case OpBra, OpBar, OpRet:
	case OpCvt:
		b = append(append(b, '.'), in.Typ.String()...)
		b = append(append(b, '.'), in.SrcTyp.String()...)
	default:
		b = append(append(b, '.'), in.Typ.String()...)
	}
	return b
}

// String renders the instruction as one line of PTX-like assembly.
func (in *Instruction) String() string { return string(in.appendTo(make([]byte, 0, 48))) }

// appendTo appends the instruction's line of assembly, without a newline,
// to b.
func (in *Instruction) appendTo(b []byte) []byte {
	if in.GuardPred != NoReg {
		b = append(b, '@')
		if in.GuardNeg {
			b = append(b, '!')
		}
		b = append(appendReg(b, "%p", in.GuardPred), ' ')
	}
	b = in.appendMnemonic(b)
	switch in.Op {
	case OpBra:
		b = strconv.AppendInt(append(b, " L"...), int64(in.Target), 10)
		b = strconv.AppendInt(append(b, ", J"...), int64(in.Join), 10)
	case OpBar, OpRet:
	case OpLd, OpTex:
		b = appendReg(append(b, ' '), "%r", in.Dst)
		b = in.appendAddr(append(b, ", "...))
	case OpSt:
		b = in.appendAddr(append(b, ' '))
		b = in.Src[1].appendTo(append(b, ", "...))
	case OpAtom:
		b = appendReg(append(b, ' '), "%r", in.Dst)
		b = in.appendAddr(append(b, ", "...))
		b = in.Src[1].appendTo(append(b, ", "...))
	case OpSetp:
		b = appendReg(append(b, ' '), "%p", in.Dst)
		b = in.Src[0].appendTo(append(b, ", "...))
		b = in.Src[1].appendTo(append(b, ", "...))
	case OpSelp:
		b = appendReg(append(b, ' '), "%r", in.Dst)
		b = in.Src[0].appendTo(append(b, ", "...))
		b = in.Src[1].appendTo(append(b, ", "...))
		b = appendReg(append(b, ", "...), "%p", in.Src[2].Reg)
	default:
		b = appendReg(append(b, ' '), "%r", in.Dst)
		for _, s := range in.Src {
			if !s.IsImm && s.Reg == NoReg {
				break
			}
			b = s.appendTo(append(b, ", "...))
		}
	}
	return b
}

// appendAddr appends a memory operand, "[base+off]".
func (in *Instruction) appendAddr(b []byte) []byte {
	b = in.Src[0].appendTo(append(b, '['))
	b = strconv.AppendInt(append(b, '+'), int64(in.Off), 10)
	return append(b, ']')
}
