package compiler

import (
	"testing"

	"gpucmp/internal/ptx"
)

// Helpers for hand-assembling small PTX fixtures.

func movRR(dst, src ptx.Reg) ptx.Instruction {
	in := ptx.NewInstruction(ptx.OpMov)
	in.Typ = ptx.U32
	in.Dst = dst
	in.Src[0] = ptx.R(src)
	return in
}

func movRI(dst ptx.Reg, v uint32) ptx.Instruction {
	in := ptx.NewInstruction(ptx.OpMov)
	in.Typ = ptx.U32
	in.Dst = dst
	in.Src[0] = ptx.ImmU(v)
	return in
}

func addRRR(dst, a, b ptx.Reg) ptx.Instruction {
	in := ptx.NewInstruction(ptx.OpAdd)
	in.Typ = ptx.U32
	in.Dst = dst
	in.Src[0] = ptx.R(a)
	in.Src[1] = ptx.R(b)
	return in
}

func stG(addr, val ptx.Reg) ptx.Instruction {
	in := ptx.NewInstruction(ptx.OpSt)
	in.Space = ptx.SpaceGlobal
	in.Typ = ptx.U32
	in.Src[0] = ptx.R(addr)
	in.Src[1] = ptx.R(val)
	return in
}

func retI() ptx.Instruction { return ptx.NewInstruction(ptx.OpRet) }

// TestCopyPropWithinBlock is the baseline: inside one basic block a mov's
// source is forwarded into later uses.
func TestCopyPropWithinBlock(t *testing.T) {
	k := &ptx.Kernel{Name: "cp", Toolchain: "cuda", NumRegs: 8}
	k.Instrs = []ptx.Instruction{
		movRR(1, 0),     // r1 = r0
		addRRR(2, 1, 1), // r2 = r1 + r1 — both slots forward to r0
		stG(3, 2),
		retI(),
	}
	if got := copyPropagate(k); got != 2 {
		t.Fatalf("rewrote %d operands, want 2:\n%s", got, k.Disassemble())
	}
	add := k.Instrs[1]
	if add.Src[0].Reg != 0 || add.Src[1].Reg != 0 {
		t.Errorf("add sources not forwarded to r0:\n%s", k.Disassemble())
	}
}

// TestCopyPropStopsAtBranchTarget: an instruction that is a branch target
// starts a new basic block, so copies recorded before it must not be
// forwarded into it — on some path the mov may never have executed.
func TestCopyPropStopsAtBranchTarget(t *testing.T) {
	k := &ptx.Kernel{Name: "bb", Toolchain: "cuda", NumRegs: 8}
	setp := ptx.NewInstruction(ptx.OpSetp)
	setp.Typ = ptx.U32
	setp.Dst = 5
	setp.Src[0] = ptx.R(4)
	setp.Src[1] = ptx.ImmU(0)
	bra := ptx.NewInstruction(ptx.OpBra)
	bra.GuardPred = 5
	bra.Target = 3 // jump over the mov, straight to the add
	bra.Join = 3
	k.Instrs = []ptx.Instruction{
		setp,
		bra,
		movRR(1, 0),     // only executed on the fall-through path
		addRRR(2, 1, 1), // branch target: must keep reading r1
		stG(3, 2),
		retI(),
	}
	if got := copyPropagate(k); got != 0 {
		t.Fatalf("rewrote %d operands across a block boundary, want 0:\n%s", got, k.Disassemble())
	}
	add := k.Instrs[3]
	if add.Src[0].Reg != 1 || add.Src[1].Reg != 1 {
		t.Errorf("add sources must remain r1 at a branch target:\n%s", k.Disassemble())
	}
}

// TestCopyPropStopsAfterBranch: the instruction after a bra is a new leader
// even when it is not itself a target, because the bra may or may not be
// taken per lane.
func TestCopyPropStopsAfterBranch(t *testing.T) {
	k := &ptx.Kernel{Name: "ab", Toolchain: "cuda", NumRegs: 8}
	bra := ptx.NewInstruction(ptx.OpBra)
	bra.GuardPred = 5
	bra.Target = 4
	bra.Join = 4
	k.Instrs = []ptx.Instruction{
		movRR(1, 0), // r1 = r0, recorded in block 0
		bra,
		addRRR(2, 1, 1), // new block: copy table cleared
		stG(3, 2),
		retI(),
	}
	if got := copyPropagate(k); got != 0 {
		t.Fatalf("rewrote %d operands after a branch, want 0:\n%s", got, k.Disassemble())
	}
}

// TestCopyPropJoinIsLeader: the reconvergence point (Join) starts a block
// too, even when it differs from Target.
func TestCopyPropJoinIsLeader(t *testing.T) {
	k := &ptx.Kernel{Name: "jl", Toolchain: "cuda", NumRegs: 8}
	bra := ptx.NewInstruction(ptx.OpBra)
	bra.GuardPred = 5
	bra.Target = 3
	bra.Join = 4 // distinct join point
	k.Instrs = []ptx.Instruction{
		bra,
		movRR(1, 0),     // fall-through block
		addRRR(2, 1, 1), // same block: forwarded
		movRI(6, 9),     // Target block: leader (clears table)
		addRRR(7, 1, 1), // Join block: leader again — r1 must survive
		stG(3, 7),
		retI(),
	}
	if got := copyPropagate(k); got != 2 {
		t.Fatalf("rewrote %d operands, want 2 (only inside the fall-through block):\n%s",
			got, k.Disassemble())
	}
	if k.Instrs[2].Src[0].Reg != 0 {
		t.Errorf("in-block use not forwarded:\n%s", k.Disassemble())
	}
	if k.Instrs[4].Src[0].Reg != 1 {
		t.Errorf("use in the join block must keep r1:\n%s", k.Disassemble())
	}
}

// TestCopyPropInvalidatedByRedefinition: redefining either side of a
// recorded copy kills it.
func TestCopyPropInvalidatedByRedefinition(t *testing.T) {
	// Case 1: the destination is redefined. The stale r1->r0 copy must die;
	// the fresh r1->42 copy is the one that may be forwarded.
	k := &ptx.Kernel{Name: "rd", Toolchain: "cuda", NumRegs: 8}
	k.Instrs = []ptx.Instruction{
		movRR(1, 0),
		movRI(1, 42), // r1 redefined: r1->r0 must die, r1->42 recorded
		addRRR(2, 1, 1),
		stG(3, 2),
		retI(),
	}
	copyPropagate(k)
	add := k.Instrs[2]
	if !add.Src[0].IsImm && add.Src[0].Reg == 0 {
		t.Errorf("stale copy r1->r0 used after destination redefinition:\n%s", k.Disassemble())
	}
	if !add.Src[0].IsImm || add.Src[0].Imm != 42 {
		t.Errorf("fresh copy r1->42 not forwarded:\n%s", k.Disassemble())
	}

	// Case 2: the source is redefined.
	k2 := &ptx.Kernel{Name: "rs", Toolchain: "cuda", NumRegs: 8}
	k2.Instrs = []ptx.Instruction{
		movRR(1, 0),
		movRI(0, 42), // r0 redefined: forwarding r1->r0 now wrong
		addRRR(2, 1, 1),
		stG(3, 2),
		retI(),
	}
	copyPropagate(k2)
	if k2.Instrs[2].Src[0].Reg != 1 {
		t.Errorf("stale copy used after source redefinition:\n%s", k2.Disassemble())
	}
}

// TestCopyPropSelpPredicateSlot: selp's third operand is architecturally a
// predicate register; an immediate copy must not be forwarded into it, but
// a register-to-register copy may.
func TestCopyPropSelpPredicateSlot(t *testing.T) {
	mkSelp := func(pred ptx.Reg) ptx.Instruction {
		in := ptx.NewInstruction(ptx.OpSelp)
		in.Typ = ptx.U32
		in.Dst = 2
		in.Src[0] = ptx.ImmU(1)
		in.Src[1] = ptx.ImmU(0)
		in.Src[2] = ptx.R(pred)
		return in
	}

	// Immediate copy: must NOT enter the predicate slot.
	k := &ptx.Kernel{Name: "sp", Toolchain: "opencl", NumRegs: 8}
	k.Instrs = []ptx.Instruction{
		movRI(4, 1), // r4 = imm 1
		mkSelp(4),
		stG(3, 2),
		retI(),
	}
	copyPropagate(k)
	selp := k.Instrs[1]
	if selp.Src[2].IsImm {
		t.Errorf("immediate forwarded into selp predicate slot:\n%s", k.Disassemble())
	}
	if selp.Src[2].Reg != 4 {
		t.Errorf("selp predicate changed to r%d, want r4:\n%s", selp.Src[2].Reg, k.Disassemble())
	}

	// Register copy: fine to forward.
	k2 := &ptx.Kernel{Name: "sr", Toolchain: "opencl", NumRegs: 8}
	k2.Instrs = []ptx.Instruction{
		movRR(4, 5), // r4 = r5
		mkSelp(4),
		stG(3, 2),
		retI(),
	}
	copyPropagate(k2)
	if got := k2.Instrs[1].Src[2].Reg; got != 5 {
		t.Errorf("register copy not forwarded into selp predicate: r%d, want r5:\n%s",
			got, k2.Disassemble())
	}
}

// TestCopyPropSkipsGuardedMov: a predicated mov only writes active lanes,
// so it is not a full copy and must not be recorded — but it still kills
// any previous copy of its destination.
func TestCopyPropSkipsGuardedMov(t *testing.T) {
	k := &ptx.Kernel{Name: "gm", Toolchain: "cuda", NumRegs: 8}
	gmov := movRR(1, 0)
	gmov.GuardPred = 6
	k.Instrs = []ptx.Instruction{
		movRR(1, 4), // full copy r1=r4
		gmov,        // partial overwrite: r1 no longer equals r4 everywhere
		addRRR(2, 1, 1),
		stG(3, 2),
		retI(),
	}
	copyPropagate(k)
	add := k.Instrs[2]
	if add.Src[0].Reg != 1 || add.Src[1].Reg != 1 {
		t.Errorf("guarded mov treated as a full copy:\n%s", k.Disassemble())
	}
}

// TestCopyPropRewritesGuards: guard predicates are uses too; a copy of a
// predicate register is forwarded into the guard slot.
func TestCopyPropRewritesGuards(t *testing.T) {
	k := &ptx.Kernel{Name: "gp", Toolchain: "cuda", NumRegs: 8}
	guarded := addRRR(2, 3, 3)
	guarded.GuardPred = 1
	k.Instrs = []ptx.Instruction{
		movRR(1, 0), // r1 = r0 (predicate copy)
		guarded,     // @p1 add — guard should become p0
		stG(3, 2),
		retI(),
	}
	if got := copyPropagate(k); got != 1 {
		t.Fatalf("rewrote %d operands, want 1 (the guard):\n%s", got, k.Disassemble())
	}
	if k.Instrs[1].GuardPred != 0 {
		t.Errorf("guard not forwarded: p%d, want p0:\n%s", k.Instrs[1].GuardPred, k.Disassemble())
	}
}

// TestCopyPropChainThenDCE: the canonical pipeline interaction — copy-prop
// makes the movs dead, dce deletes them, and the paper's "mov-heavy PTX is
// free after the back-end" claim holds.
func TestCopyPropChainThenDCE(t *testing.T) {
	k := &ptx.Kernel{Name: "ch", Toolchain: "cuda", NumRegs: 8}
	k.Instrs = []ptx.Instruction{
		movRR(1, 0),
		movRR(2, 1), // chain: r2 = r1 = r0
		addRRR(3, 2, 2),
		stG(4, 3),
		retI(),
	}
	Optimize(k)
	if n := len(k.Instrs); n != 3 {
		t.Errorf("mov chain not fully eliminated, %d instrs left:\n%s", n, k.Disassemble())
	}
	if got := k.Instrs[0].Src[0].Reg; k.Instrs[0].Op != ptx.OpAdd || got != 0 {
		t.Errorf("chained copy not fully forwarded to r0:\n%s", k.Disassemble())
	}
}
