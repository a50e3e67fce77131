package compiler

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"gpucmp/internal/kir"
	"gpucmp/internal/ptx"
)

// loopyKernel exercises every front-end feature at once: parameter caching,
// CSE, if-conversion, a pragma-unrolled loop and a conditional store. It is
// complex enough that all three back-end passes find work.
func loopyKernel(t *testing.T) *kir.Kernel {
	t.Helper()
	b := kir.NewKernel("loopy")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	n := b.ScalarParam("n", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	acc := b.Declare("acc", kir.F(0))
	b.ForUnroll("i", kir.U(0), kir.U(4), kir.U(1), kir.UnrollFull, func(i kir.Expr) {
		b.Assign(acc, kir.Add(acc, b.Load(in, kir.Add(kir.Mul(gid, kir.U(4)), i))))
	})
	b.If(kir.Lt(gid, n), func() {
		b.Store(out, gid, acc)
	})
	return b.MustBuild()
}

func TestPipelineRecordsPerPassStats(t *testing.T) {
	pk, err := Compile(loopyKernel(t), CUDA())
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultPassNames()
	if len(pk.PassStats) != len(want) {
		t.Fatalf("got %d pass stats, want %d: %+v", len(pk.PassStats), len(want), pk.PassStats)
	}
	for i, st := range pk.PassStats {
		if st.Pass != want[i] {
			t.Errorf("stat %d: pass %q, want %q", i, st.Pass, want[i])
		}
		if st.InstrsBefore < st.InstrsAfter {
			t.Errorf("pass %q grew the kernel: %d -> %d instrs", st.Pass, st.InstrsBefore, st.InstrsAfter)
		}
		if st.InstrsBefore-st.InstrsAfter != st.Removed {
			t.Errorf("pass %q: instruction delta %d does not match Removed %d",
				st.Pass, st.InstrsBefore-st.InstrsAfter, st.Removed)
		}
	}
	// Stats chain: each pass starts where the previous one ended.
	for i := 1; i < len(pk.PassStats); i++ {
		if pk.PassStats[i].InstrsBefore != pk.PassStats[i-1].InstrsAfter {
			t.Errorf("pass %q starts at %d instrs but %q ended at %d",
				pk.PassStats[i].Pass, pk.PassStats[i].InstrsBefore,
				pk.PassStats[i-1].Pass, pk.PassStats[i-1].InstrsAfter)
		}
	}
	// The mov-heavy CUDA personality guarantees copy-prop and DCE find work.
	if pk.PassStats[0].Rewritten == 0 {
		t.Errorf("copy-prop found no work on a mov-heavy kernel:\n%s", pk.Disassemble())
	}
	if pk.PassStats[1].Removed == 0 {
		t.Errorf("dce removed nothing after copy propagation:\n%s", pk.Disassemble())
	}
}

func TestPipelineObserverSeesEveryPass(t *testing.T) {
	var order []string
	var deltas []int
	cfg := Config{
		Personality: CUDA(),
		Observer: func(p Pass, before, after *ptx.Stats) {
			order = append(order, p.Name)
			deltas = append(deltas, int(before.Total-after.Total))
		},
	}
	pk, err := CompileWithConfig(loopyKernel(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != strings.Join(DefaultPassNames(), ",") {
		t.Errorf("observer saw passes %v, want %v", order, DefaultPassNames())
	}
	for i, d := range deltas {
		if d != pk.PassStats[i].InstrsBefore-pk.PassStats[i].InstrsAfter {
			t.Errorf("observer delta %d for %q disagrees with pass stats (%d)",
				d, order[i], pk.PassStats[i].InstrsBefore-pk.PassStats[i].InstrsAfter)
		}
	}
}

// breakerPass deliberately corrupts the kernel so Debug-mode validation has
// something to catch.
func breakerPass() Pass {
	return Pass{
		Name:        "breaker",
		Description: "corrupt a branch target (test only)",
		Run: func(k *ptx.Kernel, rem *Remarks) Counters {
			for i := range k.Instrs {
				if k.Instrs[i].Op == ptx.OpBra {
					k.Instrs[i].Target = len(k.Instrs) + 100
					return Counters{Rewritten: 1}
				}
			}
			return Counters{}
		},
	}
}

func TestPipelineDebugCatchesBrokenPass(t *testing.T) {
	// OpenCL keeps the loop rolled (no pragma, trips above its auto-unroll
	// bound), so a bra instruction survives for the breaker to corrupt.
	b := kir.NewKernel("rolled")
	out := b.GlobalBuffer("out", kir.F32)
	acc := b.Declare("acc", kir.F(0))
	b.For("i", kir.U(0), kir.U(64), kir.U(1), func(i kir.Expr) {
		b.Assign(acc, kir.Add(acc, kir.CastTo(kir.F32, i)))
	})
	b.Store(out, b.GlobalIDX(), acc)
	k := b.MustBuild()

	cfg := Config{
		Personality: OpenCL(),
		Passes:      append(DefaultPasses(), breakerPass()),
		Debug:       true,
	}
	if _, err := CompileWithConfig(k, cfg); err == nil {
		t.Fatal("Debug pipeline accepted a pass that corrupted a branch target")
	} else if !strings.Contains(err.Error(), `pass "breaker"`) {
		t.Errorf("error does not name the offending pass: %v", err)
	}

	// Without Debug the same pipeline is only caught by the final
	// whole-kernel validation — the error must still surface.
	cfg.Debug = false
	if _, err := CompileWithConfig(k, cfg); err == nil {
		t.Fatal("final validation missed a corrupted branch target")
	}
}

func TestWithoutPass(t *testing.T) {
	ps := WithoutPass(DefaultPasses(), PassDCE)
	if got := strings.Join(PassNames(ps), ","); got != PassCopyProp+","+PassMadFuse {
		t.Errorf("WithoutPass(dce) = %s", got)
	}
}

func TestReducedPipelineChangesOutput(t *testing.T) {
	k := loopyKernel(t)
	full, err := CompileWithConfig(k, Config{Personality: CUDA()})
	if err != nil {
		t.Fatal(err)
	}
	noDCE, err := CompileWithConfig(k, Config{
		Personality: CUDA(),
		Passes:      WithoutPass(DefaultPasses(), PassDCE),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(noDCE.Instrs) <= len(full.Instrs) {
		t.Errorf("dropping dce should leave dead movs behind: %d vs %d instrs",
			len(noDCE.Instrs), len(full.Instrs))
	}
	if err := noDCE.Validate(); err != nil {
		t.Errorf("reduced-pipeline kernel invalid: %v", err)
	}
}

func TestCompileEmitsRemarks(t *testing.T) {
	pk, err := Compile(loopyKernel(t), CUDA())
	if err != nil {
		t.Fatal(err)
	}
	if len(pk.Remarks) == 0 {
		t.Fatal("no remarks on a kernel with params, an unrolled loop and an if")
	}
	var phases []string
	joined := ""
	for _, r := range pk.Remarks {
		phases = append(phases, r.Phase)
		joined += r.String() + "\n"
	}
	if !strings.Contains(joined, "unrolled loop") {
		t.Errorf("missing unroll remark in:\n%s", joined)
	}
	if !strings.Contains(joined, "parameter") {
		t.Errorf("missing parameter-caching remark in:\n%s", joined)
	}
	hasFE := false
	for _, p := range phases {
		if p == PhaseFrontEnd {
			hasFE = true
		}
	}
	if !hasFE {
		t.Errorf("no front-end-phase remarks: %v", phases)
	}

	// The OpenCL personality's distinctive transformations remark too.
	cl, err := Compile(loopyKernel(t), OpenCL())
	if err != nil {
		t.Fatal(err)
	}
	clJoined := ""
	for _, r := range cl.Remarks {
		clJoined += r.String() + "\n"
	}
	if !strings.Contains(clJoined, "strength-reduc") && !strings.Contains(clJoined, "shl") {
		t.Errorf("OpenCL build missing strength-reduction remark in:\n%s", clJoined)
	}
}

func TestSpillRemarkOnUnroll(t *testing.T) {
	b := kir.NewKernel("spill")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	n := b.ScalarParam("n", kir.U32)
	acc := b.Declare("acc", kir.F(0))
	b.ForUnroll("i", kir.U(0), n, kir.U(1), 4, func(i kir.Expr) {
		b.Assign(acc, kir.Add(acc, b.Load(in, i)))
	})
	b.Store(out, b.GlobalIDX(), acc)
	k := b.MustBuild()

	cl, err := Compile(k, OpenCL())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range cl.Remarks {
		if strings.Contains(r.Message, "spill inserted for unroll copy") {
			found = true
		}
	}
	if !found {
		t.Errorf("SpillOnUnroll personality emitted no spill remark: %v", cl.Remarks)
	}
}

func TestRemarksCollapseRepeats(t *testing.T) {
	var rem Remarks
	rem.add(PhaseFrontEnd, "CSE evicted r3")
	rem.Addf("dce", "removed %d", 2)
	rem.add(PhaseFrontEnd, "CSE evicted r3")
	rem.add("dce", "CSE evicted r3") // same message, another phase
	rem.Addf("dce", "removed %d", 2)
	rem.add(PhaseFrontEnd, "CSE evicted r3")
	want := []ptx.Remark{
		{Phase: PhaseFrontEnd, Message: "CSE evicted r3", Count: 3},
		{Phase: "dce", Message: "removed 2", Count: 2},
		{Phase: "dce", Message: "CSE evicted r3", Count: 1},
	}
	if got := rem.List(); !reflect.DeepEqual(got, want) {
		t.Errorf("List = %+v, want %+v", got, want)
	}
}

func TestNilRemarksSinkIsSafe(t *testing.T) {
	var rem *Remarks
	rem.Addf("x", "must not panic")
	if got := rem.List(); got != nil {
		t.Errorf("nil sink listed remarks: %v", got)
	}
}

func TestOptimizeStillAttachesStats(t *testing.T) {
	k := &ptx.Kernel{Name: "o", Toolchain: "cuda", NumRegs: 2}
	mov := ptx.NewInstruction(ptx.OpMov)
	mov.Typ = ptx.U32
	mov.Dst = 1
	mov.Src[0] = ptx.ImmU(7)
	st := ptx.NewInstruction(ptx.OpSt)
	st.Space = ptx.SpaceGlobal
	st.Typ = ptx.U32
	st.Src[0] = ptx.R(1)
	st.Src[1] = ptx.R(1)
	ret := ptx.NewInstruction(ptx.OpRet)
	k.Instrs = []ptx.Instruction{mov, st, ret}
	Optimize(k)
	if len(k.PassStats) != len(DefaultPasses()) {
		t.Errorf("Optimize attached %d pass stats, want %d", len(k.PassStats), len(DefaultPasses()))
	}
}

func TestPipelineErrorIsWrapped(t *testing.T) {
	k := &ptx.Kernel{Name: "w", Toolchain: "cuda", NumRegs: 1}
	bra := ptx.NewInstruction(ptx.OpBra)
	bra.Target = 0
	bra.Join = 1
	ret := ptx.NewInstruction(ptx.OpRet)
	k.Instrs = []ptx.Instruction{bra, ret}
	base := k.Validate()
	if base != nil {
		t.Skipf("fixture unexpectedly invalid: %v", base)
	}
	pl := Pipeline{Passes: []Pass{breakerPass()}, Debug: true}
	_, err := pl.Run(k, nil)
	if err == nil {
		t.Fatal("breaker pass not caught")
	}
	var vErr error = err
	if errors.Unwrap(vErr) == nil {
		t.Errorf("pipeline error does not wrap the validation error: %v", err)
	}
}
