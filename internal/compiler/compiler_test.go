package compiler

import (
	"testing"

	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
)

func vecAddKernel(t *testing.T) *kir.Kernel {
	t.Helper()
	b := kir.NewKernel("vadd")
	a := b.GlobalBuffer("a", kir.F32)
	bb := b.GlobalBuffer("b", kir.F32)
	c := b.GlobalBuffer("c", kir.F32)
	n := b.ScalarParam("n", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.If(kir.Lt(gid, n), func() {
		b.Store(c, gid, kir.Add(b.Load(a, gid), b.Load(bb, gid)))
	})
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return k
}

func compileBoth(t *testing.T, k *kir.Kernel) (cu, cl *ptx.Kernel) {
	t.Helper()
	var err error
	cu, err = Compile(k, CUDA())
	if err != nil {
		t.Fatalf("CUDA compile: %v", err)
	}
	cl, err = Compile(k, OpenCL())
	if err != nil {
		t.Fatalf("OpenCL compile: %v", err)
	}
	return cu, cl
}

func TestCompileVecAddBothPersonalities(t *testing.T) {
	cu, cl := compileBoth(t, vecAddKernel(t))
	if cu.Toolchain != "cuda" || cl.Toolchain != "opencl" {
		t.Errorf("toolchain tags: %q, %q", cu.Toolchain, cl.Toolchain)
	}
	if err := cu.Validate(); err != nil {
		t.Errorf("CUDA kernel invalid: %v", err)
	}
	if err := cl.Validate(); err != nil {
		t.Errorf("OpenCL kernel invalid: %v", err)
	}
	// Both load and store global memory the same number of times — the
	// paper's key Table V observation ("all time-consuming instructions
	// such as ld.global and st.global are exactly the same").
	cs, ls := cu.StaticStats(), cl.StaticStats()
	if cs.Get(ptx.OpLd, ptx.SpaceGlobal) != ls.Get(ptx.OpLd, ptx.SpaceGlobal) {
		t.Errorf("ld.global differs: %d vs %d",
			cs.Get(ptx.OpLd, ptx.SpaceGlobal), ls.Get(ptx.OpLd, ptx.SpaceGlobal))
	}
	if cs.Get(ptx.OpSt, ptx.SpaceGlobal) != ls.Get(ptx.OpSt, ptx.SpaceGlobal) {
		t.Errorf("st.global differs: %d vs %d",
			cs.Get(ptx.OpSt, ptx.SpaceGlobal), ls.Get(ptx.OpSt, ptx.SpaceGlobal))
	}
}

func TestParamSpacePersonalities(t *testing.T) {
	cu, cl := compileBoth(t, vecAddKernel(t))
	cs, ls := cu.StaticStats(), cl.StaticStats()
	if cs.Get(ptx.OpLd, ptx.SpaceParam) == 0 {
		t.Error("CUDA kernel should load parameters from the param space")
	}
	if cs.Get(ptx.OpLd, ptx.SpaceConst) != 0 {
		t.Error("CUDA kernel should not use ld.const for parameters")
	}
	if ls.Get(ptx.OpLd, ptx.SpaceConst) == 0 {
		t.Error("OpenCL kernel should load parameters from the constant bank")
	}
	if ls.Get(ptx.OpLd, ptx.SpaceParam) != 0 {
		t.Error("OpenCL kernel should not use ld.param")
	}
}

func TestStrengthReductionOnlyOpenCL(t *testing.T) {
	b := kir.NewKernel("sr")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	v := b.Declare("v", kir.Mul(gid, kir.U(8)))
	w := b.Declare("w", kir.Rem(v, kir.U(16)))
	b.Store(out, gid, kir.Add(v, w))
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cu, cl := compileBoth(t, k)
	cs, ls := cu.StaticStats(), cl.StaticStats()
	if ls.Get(ptx.OpShl, ptx.SpaceNone) == 0 {
		t.Error("OpenCL should strength-reduce mul-by-8 into shl")
	}
	if ls.Get(ptx.OpRem, ptx.SpaceNone) != 0 {
		t.Error("OpenCL should strength-reduce rem-by-16 into and")
	}
	if ls.Get(ptx.OpAnd, ptx.SpaceNone) == 0 {
		t.Error("OpenCL should emit and for rem-by-16")
	}
	if cs.Get(ptx.OpRem, ptx.SpaceNone) == 0 {
		t.Error("CUDA should keep the rem instruction")
	}
}

func TestCSEDeduplicates(t *testing.T) {
	// The same addressing expression appears twice; both front-ends carry
	// value-numbering CSE, so the second occurrence must reuse the first
	// (CUDA simply has the wider register window).
	b := kir.NewKernel("cse")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	gid := b.Declare("gid", b.GlobalIDX())
	idx := kir.Add(kir.Mul(gid, kir.U(3)), kir.U(1))
	x := b.Declare("x", b.Load(in, idx))
	y := b.Declare("y", kir.Mul(b.Load(in, kir.Add(kir.Mul(gid, kir.U(3)), kir.U(1))), x))
	b.Store(out, gid, y)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	count := func(pk *ptx.Kernel) int64 {
		return pk.FrontEndStats.Class(ptx.ClassArithmetic) +
			pk.FrontEndStats.Class(ptx.ClassLogicShift)
	}
	cu, cl := compileBoth(t, k)
	noCSE := CUDA()
	noCSE.CSE = false
	base, err := Compile(k, noCSE)
	if err != nil {
		t.Fatal(err)
	}
	if count(cu) >= count(base) {
		t.Errorf("CUDA CSE should shrink arithmetic: %d vs %d without CSE", count(cu), count(base))
	}
	if count(cl) >= count(base)+2 {
		t.Errorf("OpenCL CSE should roughly match: %d vs %d without CSE", count(cl), count(base))
	}
	if CUDA().MaxCSERegs <= OpenCL().MaxCSERegs {
		t.Error("NVOPENCC should have the wider CSE register window")
	}
}

func TestIfLoweringStyles(t *testing.T) {
	// Pure scalar if: CUDA guards (or branches), OpenCL if-converts to selp.
	b := kir.NewKernel("sel")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	v := b.Declare("v", kir.U(0))
	b.If(kir.Lt(gid, kir.U(128)), func() {
		b.Assign(v, kir.Add(gid, kir.U(7)))
	})
	b.Store(out, gid, v)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cu, cl := compileBoth(t, k)
	if cl.StaticStats().Get(ptx.OpSelp, ptx.SpaceNone) == 0 {
		t.Error("OpenCL should if-convert the pure conditional into selp")
	}
	if cl.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) != 0 {
		t.Error("OpenCL pure conditional should not branch")
	}
	if cu.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) != 0 {
		t.Error("CUDA small conditional should be guard-predicated, not branched")
	}
	// The CUDA version must carry guard predicates on the then-body.
	guarded := 0
	for i := range cu.Instrs {
		if cu.Instrs[i].GuardPred != ptx.NoReg && cu.Instrs[i].Op != ptx.OpBra {
			guarded++
		}
	}
	if guarded == 0 {
		t.Error("CUDA guard-form produced no guarded instructions")
	}
}

func TestIfWithStoreBranchesOnOpenCL(t *testing.T) {
	// A store is not if-convertible; OpenCL must fall back to a branch,
	// CUDA can still guard it.
	cu, cl := compileBoth(t, vecAddKernel(t))
	if cl.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) == 0 {
		t.Error("OpenCL guarded store should use a branch")
	}
	if cu.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) != 0 {
		t.Error("CUDA should predicate the guarded store without a branch")
	}
}

func TestAutoUnrollCUDAOnly(t *testing.T) {
	// A 6-trip loop: within NVOPENCC's auto-unroll range (8) but beyond
	// the OpenCL front-end's (4).
	b := kir.NewKernel("unr")
	out := b.GlobalBuffer("out", kir.F32)
	acc := b.Declare("acc", kir.F(0))
	b.For("i", kir.U(0), kir.U(6), kir.U(1), func(i kir.Expr) {
		b.Assign(acc, kir.Add(acc, kir.CastTo(kir.F32, i)))
	})
	b.Store(out, b.GlobalIDX(), acc)
	k, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cu, cl := compileBoth(t, k)
	if cu.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) != 0 {
		t.Error("CUDA should fully unroll the 4-trip constant loop")
	}
	if cl.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) == 0 {
		t.Error("OpenCL without pragma should keep the loop rolled")
	}
	if cl.StaticStats().Get(ptx.OpSetp, ptx.SpaceNone) == 0 {
		t.Error("OpenCL rolled loop needs a setp condition")
	}
}

func TestPragmaUnrollHonoredByBoth(t *testing.T) {
	mk := func() *kir.Kernel {
		b := kir.NewKernel("punr")
		out := b.GlobalBuffer("out", kir.F32)
		acc := b.Declare("acc", kir.F(0))
		b.ForUnroll("i", kir.U(0), kir.U(16), kir.U(1), kir.UnrollFull, func(i kir.Expr) {
			b.Assign(acc, kir.Add(acc, kir.F(1)))
		})
		b.Store(out, b.GlobalIDX(), acc)
		return b.MustBuild()
	}
	cu, cl := compileBoth(t, mk())
	if cu.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) != 0 {
		t.Error("CUDA should honour full-unroll pragma")
	}
	if cl.StaticStats().Get(ptx.OpBra, ptx.SpaceNone) != 0 {
		t.Error("OpenCL should honour full-unroll pragma")
	}
}

func TestPartialUnrollRuntimeLimit(t *testing.T) {
	// A runtime-bounded loop with pragma 4: body appears 4+1 times (main
	// copies + remainder), with two rolled loops.
	mk := func(unroll int) *kir.Kernel {
		b := kir.NewKernel("rt")
		in := b.GlobalBuffer("in", kir.F32)
		out := b.GlobalBuffer("out", kir.F32)
		n := b.ScalarParam("n", kir.U32)
		acc := b.Declare("acc", kir.F(0))
		b.ForUnroll("i", kir.U(0), n, kir.U(1), unroll, func(i kir.Expr) {
			b.Assign(acc, kir.Add(acc, b.Load(in, i)))
		})
		b.Store(out, b.GlobalIDX(), acc)
		return b.MustBuild()
	}
	plain, err := Compile(mk(0), CUDA())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	unrolled, err := Compile(mk(4), CUDA())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	pl := plain.StaticStats().Get(ptx.OpLd, ptx.SpaceGlobal)
	ul := unrolled.StaticStats().Get(ptx.OpLd, ptx.SpaceGlobal)
	if pl != 1 || ul != 5 {
		t.Errorf("global loads: plain=%d (want 1), unrolled=%d (want 5)", pl, ul)
	}
	if got := unrolled.StaticStats().Get(ptx.OpBra, ptx.SpaceNone); got < 4 {
		t.Errorf("partial unroll should keep two rolled loops, got %d branches", got)
	}
}

func TestDeadCodeElimination(t *testing.T) {
	k := &ptx.Kernel{Name: "d", Toolchain: "cuda", NumRegs: 4}
	add := ptx.NewInstruction(ptx.OpAdd)
	add.Typ = ptx.U32
	add.Dst = 0
	add.Src[0] = ptx.ImmU(1)
	add.Src[1] = ptx.ImmU(2)
	dead := ptx.NewInstruction(ptx.OpMul) // feeds only another dead instr
	dead.Typ = ptx.U32
	dead.Dst = 1
	dead.Src[0] = ptx.R(0)
	dead.Src[1] = ptx.ImmU(3)
	dead2 := ptx.NewInstruction(ptx.OpAdd)
	dead2.Typ = ptx.U32
	dead2.Dst = 2
	dead2.Src[0] = ptx.R(1)
	dead2.Src[1] = ptx.ImmU(1)
	st := ptx.NewInstruction(ptx.OpSt)
	st.Space = ptx.SpaceGlobal
	st.Typ = ptx.U32
	st.Src[0] = ptx.R(0)
	st.Src[1] = ptx.R(0)
	ret := ptx.NewInstruction(ptx.OpRet)
	k.Instrs = []ptx.Instruction{add, dead, dead2, st, ret}
	Optimize(k)
	if len(k.Instrs) != 3 {
		t.Fatalf("DCE left %d instructions, want 3:\n%s", len(k.Instrs), k.Disassemble())
	}
}

func TestMadFusion(t *testing.T) {
	k := &ptx.Kernel{Name: "f", Toolchain: "opencl", NumRegs: 8}
	mul := ptx.NewInstruction(ptx.OpMul)
	mul.Typ = ptx.F32
	mul.Dst = 2
	mul.Src[0] = ptx.R(0)
	mul.Src[1] = ptx.R(1)
	add := ptx.NewInstruction(ptx.OpAdd)
	add.Typ = ptx.F32
	add.Dst = 3
	add.Src[0] = ptx.R(2)
	add.Src[1] = ptx.R(4)
	st := ptx.NewInstruction(ptx.OpSt)
	st.Space = ptx.SpaceGlobal
	st.Typ = ptx.F32
	st.Src[0] = ptx.R(5)
	st.Src[1] = ptx.R(3)
	ret := ptx.NewInstruction(ptx.OpRet)
	k.Instrs = []ptx.Instruction{mul, add, st, ret}
	Optimize(k)
	s := k.StaticStats()
	if s.Get(ptx.OpFma, ptx.SpaceNone) != 1 {
		t.Errorf("expected one fused fma:\n%s", k.Disassemble())
	}
	if s.Get(ptx.OpMul, ptx.SpaceNone) != 0 {
		t.Errorf("mul should be fused away:\n%s", k.Disassemble())
	}
}

func TestSharedAndLocalFootprints(t *testing.T) {
	b := kir.NewKernel("foot")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	tile := b.SharedArray("tile", kir.F32, 272)
	scr := b.LocalArray("scr", kir.F32, 8)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(tile, kir.Bi(kir.TidX), b.Load(in, gid))
	b.Barrier()
	b.Store(scr, kir.U(0), b.Load(tile, kir.Bi(kir.TidX)))
	b.Store(out, gid, b.Load(scr, kir.U(0)))
	k := b.MustBuild()
	cu, cl := compileBoth(t, k)
	for _, pk := range []*ptx.Kernel{cu, cl} {
		if pk.SharedBytes != 272*4 {
			t.Errorf("%s SharedBytes = %d, want %d", pk.Toolchain, pk.SharedBytes, 272*4)
		}
		if pk.LocalBytes != 8*4 {
			t.Errorf("%s LocalBytes = %d, want %d", pk.Toolchain, pk.LocalBytes, 8*4)
		}
		s := pk.StaticStats()
		if s.Get(ptx.OpSt, ptx.SpaceShared) == 0 || s.Get(ptx.OpLd, ptx.SpaceShared) == 0 {
			t.Errorf("%s missing shared traffic", pk.Toolchain)
		}
		if s.Get(ptx.OpSt, ptx.SpaceLocal) == 0 || s.Get(ptx.OpLd, ptx.SpaceLocal) == 0 {
			t.Errorf("%s missing local traffic", pk.Toolchain)
		}
		if s.Get(ptx.OpBar, ptx.SpaceNone) != 1 {
			t.Errorf("%s barrier count wrong", pk.Toolchain)
		}
	}
}

func TestTextureAndConstantSpaces(t *testing.T) {
	b := kir.NewKernel("spaces")
	vec := b.TexBuffer("vec", kir.F32)
	filt := b.ConstBuffer("filt", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(out, gid, kir.Mul(b.Load(vec, gid), b.Load(filt, kir.U(0))))
	k := b.MustBuild()
	cu, cl := compileBoth(t, k)
	for _, pk := range []*ptx.Kernel{cu, cl} {
		s := pk.StaticStats()
		if s.Get(ptx.OpTex, ptx.SpaceNone) == 0 {
			t.Errorf("%s missing texture fetch", pk.Toolchain)
		}
		if s.Get(ptx.OpLd, ptx.SpaceConst) == 0 {
			t.Errorf("%s missing constant load", pk.Toolchain)
		}
	}
	if cu.Params[0].Space != ptx.SpaceTex || cu.Params[1].Space != ptx.SpaceConst {
		t.Error("parameter spaces not propagated")
	}
}

func TestMovHeavyCUDA(t *testing.T) {
	// CUDA's MovCopies style must produce strictly more movs than OpenCL
	// for the same kernel (the paper's 687-vs-88 contrast, in miniature).
	b := kir.NewKernel("movs")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	a := b.Declare("a", kir.Add(gid, kir.U(1)))
	c := b.Declare("c", kir.Add(a, kir.U(2)))
	d := b.Declare("d", kir.Add(c, kir.U(3)))
	b.Store(out, gid, d)
	k := b.MustBuild()
	cu, cl := compileBoth(t, k)
	// The mov-heavy style shows in the front-end PTX (Table V view); the
	// back end's copy propagation then removes it from the executed code.
	cm := cu.FrontEndStats.Get(ptx.OpMov, ptx.SpaceNone)
	lm := cl.FrontEndStats.Get(ptx.OpMov, ptx.SpaceNone)
	if cm <= lm {
		t.Errorf("CUDA front-end movs (%d) should exceed OpenCL movs (%d)", cm, lm)
	}
	cmPost := cu.StaticStats().Get(ptx.OpMov, ptx.SpaceNone)
	if cmPost >= cm {
		t.Errorf("copy propagation should remove movs: %d -> %d", cm, cmPost)
	}
}

func TestRegisterCountsReasonable(t *testing.T) {
	cu, cl := compileBoth(t, vecAddKernel(t))
	if cu.NumRegs <= 0 || cu.NumRegs > 64 {
		t.Errorf("CUDA NumRegs = %d, want (0,64]", cu.NumRegs)
	}
	if cl.NumRegs <= 0 || cl.NumRegs > 64 {
		t.Errorf("OpenCL NumRegs = %d, want (0,64]", cl.NumRegs)
	}
}
