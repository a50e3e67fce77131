package pattern

import (
	"reflect"
	"testing"

	"gpucmp/internal/kir"
)

// TestMangleCoversEveryScheduleField is the reflection audit promised in
// schedule.go: adding a Schedule field without teaching Mangle about it
// would let two different schedules share a kernel name (and therefore a
// compile-cache entry), so perturbing ANY field must change the mangle.
func TestMangleCoversEveryScheduleField(t *testing.T) {
	base := Schedule{BlockX: 256, Coarsen: 1}
	rv := reflect.ValueOf(&base).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		perturbed := base
		f := reflect.ValueOf(&perturbed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Schedule field %s has kind %s: teach this audit (and Mangle) about it", rt.Field(i).Name, f.Kind())
		}
		if perturbed.Mangle() == base.Mangle() {
			t.Errorf("perturbing Schedule.%s does not change Mangle() = %q", rt.Field(i).Name, base.Mangle())
		}
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	progs := []Program{
		&MapProg{Name: "m", Root: Map(fnAdd1(), Map(fnScale2(), In("a", kir.F32)))},
		&ReduceProg{Name: "r", Root: In("a", kir.F32), Combine: fnAddF()},
		&ScanProg{Name: "s", Input: "a", Elem: kir.U32, Combine: fnAddU()},
		&Stencil2DProg{Name: "st", Input: "img", Taps: []Tap{{0, 0}}, Coeffs: []float32{1},
			Fn: Fn{Params: []FnParam{{Name: "t0", T: kir.F32}, {Name: "c0", T: kir.F32}},
				Body: kir.Mul(X("t0", kir.F32), X("c0", kir.F32))}},
		&MatMulProg{Name: "mm"},
	}
	total := 0
	for _, p := range progs {
		for _, s := range Space(p) {
			total++
			got, err := ParseSchedule(s.Mangle())
			if err != nil {
				t.Fatalf("%s: %v", s.Mangle(), err)
			}
			if got != s {
				t.Fatalf("round trip %s: got %+v, want %+v", s.Mangle(), got, s)
			}
		}
	}
	if total < 20 {
		t.Fatalf("only %d schedules across all programs; rule space suspiciously small", total)
	}
	for _, bad := range []string{"", "b256", "b256.c1.u0.f1.r0.t0", "x256.c1.u0.f1.r0.t0.k0",
		"b256.c1.u0.f2.r0.t0.k0", "b25x.c1.u0.f1.r0.t0.k0"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) should fail", bad)
		}
	}
}

// TestSpaceUniqueAndCanonicalFirst checks Space's two structural promises.
func TestSpaceUniqueAndCanonicalFirst(t *testing.T) {
	p := &ReduceProg{Name: "r", Root: Map(fnSquare(), In("a", kir.F32)), Combine: fnAddF()}
	space := Space(p)
	if space[0] != Canonical(p) {
		t.Fatalf("space[0] = %+v, want canonical %+v", space[0], Canonical(p))
	}
	seen := map[string]bool{}
	for _, s := range space {
		m := s.Mangle()
		if seen[m] {
			t.Fatalf("duplicate schedule %s in space", m)
		}
		seen[m] = true
	}
	// block(3) x fuse(2) x tree(2) x unroll(2) = 24 for a fusable reduce.
	if len(space) != 24 {
		t.Fatalf("reduce space has %d schedules, want 24", len(space))
	}
}

func TestLowerRejectsIllegalSchedules(t *testing.T) {
	rp := &ReduceProg{Name: "r", Root: In("a", kir.F32), Combine: fnAddF()}
	sp := &ScanProg{Name: "s", Input: "a", Elem: kir.U32, Combine: fnAddU()}
	mp := &MatMulProg{Name: "mm"}
	cases := []struct {
		name  string
		prog  Program
		sched Schedule
		shape Shape
	}{
		{"reduce-nonpow2", rp, Schedule{BlockX: 100, Coarsen: 1, TreeReduce: true}, Shape{N: 64}},
		{"reduce-coarsen", rp, Schedule{BlockX: 64, Coarsen: 2, TreeReduce: true}, Shape{N: 64}},
		{"scan-misaligned", sp, Schedule{BlockX: 256, Coarsen: 1}, Shape{N: 100}},
		{"matmul-misaligned", mp, Schedule{BlockX: 16, Coarsen: 1, Tile: true}, Shape{N: 30}},
		{"zero-block", mp, Schedule{BlockX: 0, Coarsen: 1}, Shape{N: 32}},
		{"zero-coarsen", mp, Schedule{BlockX: 16, Coarsen: 0}, Shape{N: 32}},
	}
	for _, c := range cases {
		if _, err := Lower(c.prog, c.sched, c.shape); err == nil {
			t.Errorf("%s: Lower should reject schedule %+v", c.name, c.sched)
		}
	}
}

// TestCanonicalReduceMatchesHandWrittenShape pins the shape of the Reduce
// benchmark's kernel, which is this lowering: at the canonical schedule it
// keeps the SHOC hand-written kernel's shape — one shared tile of 256
// words, log2(256) = 8 tree rounds, identity-guarded load.
func TestCanonicalReduceMatchesHandWrittenShape(t *testing.T) {
	p := &ReduceProg{Name: "r", Root: In("in", kir.F32), Combine: fnAddF()}
	l, err := Lower(p, Canonical(p), Shape{N: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Kernels) != 1 {
		t.Fatalf("canonical reduce lowered to %d kernels, want 1", len(l.Kernels))
	}
	k := l.Kernels[0]
	if len(k.SharedArrays) != 1 || k.SharedArrays[0].Count != 256 {
		t.Fatalf("canonical reduce shared arrays: %+v, want one 256-word tile", k.SharedArrays)
	}
	if got := l.Launches[0]; got.BlockX != 256 || got.GridX != (1<<12)/256 {
		t.Fatalf("canonical reduce launch %+v", got)
	}
}
