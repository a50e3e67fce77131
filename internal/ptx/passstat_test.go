package ptx

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestPassStatChanged(t *testing.T) {
	if (PassStat{Pass: "dce", InstrsBefore: 5, InstrsAfter: 5, RegsBefore: 3, RegsAfter: 3}).Changed() {
		t.Error("no-op stat reported as changed")
	}
	cases := []PassStat{
		{InstrsBefore: 5, InstrsAfter: 4},
		{RegsBefore: 3, RegsAfter: 2},
		{Rewritten: 1},
		{Removed: 1},
		{Fused: 1},
	}
	for i, c := range cases {
		if !c.Changed() {
			t.Errorf("case %d: %+v should report changed", i, c)
		}
	}
}

func TestUsedRegs(t *testing.T) {
	k := &Kernel{Name: "u", NumRegs: 100} // high-water mark deliberately inflated
	add := NewInstruction(OpAdd)
	add.Typ = U32
	add.Dst = 1
	add.Src[0] = R(2)
	add.Src[1] = ImmU(7) // immediates don't count
	g := NewInstruction(OpMov)
	g.Typ = U32
	g.Dst = 1 // repeat: counted once
	g.Src[0] = Sp(SrTidX)
	g.GuardPred = 3 // guards count
	ret := NewInstruction(OpRet)
	k.Instrs = []Instruction{add, g, ret}
	if got := k.UsedRegs(); got != 3 { // r1, r2, p3
		t.Errorf("UsedRegs = %d, want 3", got)
	}
	if got := (&Kernel{}).UsedRegs(); got != 0 {
		t.Errorf("empty kernel UsedRegs = %d, want 0", got)
	}
}

func TestDiffTable(t *testing.T) {
	before, after := NewStats(), NewStats()
	ld := NewInstruction(OpLd)
	ld.Space = SpaceGlobal
	mov := NewInstruction(OpMov)
	add := NewInstruction(OpAdd)
	// before: 2 mov, 1 add, 1 ld.global; after: 1 add, 1 ld.global.
	before.Count(&mov, 2)
	before.Count(&add, 1)
	before.Count(&ld, 1)
	after.Count(&add, 1)
	after.Count(&ld, 1)

	out := DiffTable(before, after)
	if !strings.Contains(out, "mov") {
		t.Errorf("changed row missing:\n%s", out)
	}
	if strings.Contains(out, "add") || strings.Contains(out, "ld.global") {
		t.Errorf("unchanged rows should be omitted:\n%s", out)
	}
	if !strings.Contains(out, "(-2)") {
		t.Errorf("delta missing:\n%s", out)
	}
	if !strings.Contains(out, "TOTAL") {
		t.Errorf("TOTAL row missing:\n%s", out)
	}

	if got := DiffTable(before, before); got != "  (no change)\n" {
		t.Errorf("identical censuses: %q", got)
	}
}

func TestRemarkString(t *testing.T) {
	r := Remark{Phase: "frontend", Message: "fully unrolled loop i by 8 trips"}
	if got := r.String(); got != "frontend: fully unrolled loop i by 8 trips" {
		t.Errorf("Remark.String = %q", got)
	}
}

// TestRemarkJSON: a remark that fired once encodes as it did before counts
// existed, a repeated one adds "count", and what decodes back counts the
// same firings.
func TestRemarkJSON(t *testing.T) {
	for _, tc := range []struct {
		r    Remark
		want string
	}{
		{Remark{Phase: "frontend", Message: "a<b", Count: 1}, `{"phase":"frontend","message":"a\u003cb"}`},
		{Remark{Phase: "frontend", Message: "hand-built"}, `{"phase":"frontend","message":"hand-built"}`},
		{Remark{Phase: "dce", Message: "removed 3", Count: 7}, `{"phase":"dce","message":"removed 3","count":7}`},
	} {
		b, err := json.Marshal(tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("Marshal(%+v) = %s, want %s", tc.r, b, tc.want)
		}
		var back Remark
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back.Phase != tc.r.Phase || back.Message != tc.r.Message ||
			RemarkTotal([]Remark{back}) != RemarkTotal([]Remark{tc.r}) {
			t.Errorf("%s decodes to %+v, want the firings of %+v", b, back, tc.r)
		}
	}
	if got := RemarkTotal([]Remark{{Count: 3}, {Count: 1}, {}}); got != 5 {
		t.Errorf("RemarkTotal = %d, want 5", got)
	}
}
