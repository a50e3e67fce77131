package pattern

// The rewrite-rule soundness suite: for every test program and EVERY
// schedule in its rule space, lowering to KIR and executing on the host
// reference executor must reproduce the schedule-aware evaluator's output
// bit for bit. A rewrite rule that changes results in any way the
// evaluator does not predict fails here.

import (
	"math"
	"testing"

	"gpucmp/internal/kir"
	"gpucmp/internal/workload"
)

// Shared element functions.

func fnScale2() Fn { // f32: x * 2
	return Fn{
		Params: []FnParam{{Name: "x", T: kir.F32}},
		Body:   kir.Mul(X("x", kir.F32), kir.F(2)),
	}
}

func fnAdd1() Fn { // f32: x + 1
	return Fn{
		Params: []FnParam{{Name: "x", T: kir.F32}},
		Body:   kir.Add(X("x", kir.F32), kir.F(1)),
	}
}

func fnSquare() Fn { // f32: x * x
	return Fn{
		Params: []FnParam{{Name: "x", T: kir.F32}},
		Body:   kir.Mul(X("x", kir.F32), X("x", kir.F32)),
	}
}

func fnAddF() Fn { // f32: a + b
	return Fn{
		Params: []FnParam{{Name: "a", T: kir.F32}, {Name: "b", T: kir.F32}},
		Body:   kir.Add(X("a", kir.F32), X("b", kir.F32)),
	}
}

func fnAddU() Fn { // u32: a + b
	return Fn{
		Params: []FnParam{{Name: "a", T: kir.U32}, {Name: "b", T: kir.U32}},
		Body:   kir.Add(X("a", kir.U32), X("b", kir.U32)),
	}
}

func fnMaxU() Fn { // u32: max(a, b) via select
	return Fn{
		Params: []FnParam{{Name: "a", T: kir.U32}, {Name: "b", T: kir.U32}},
		Body:   kir.Select(kir.Lt(X("a", kir.U32), X("b", kir.U32)), X("b", kir.U32), X("a", kir.U32)),
	}
}

func fnMixU() Fn { // u32: (a + b) ^ (a << 3)
	return Fn{
		Params: []FnParam{{Name: "a", T: kir.U32}, {Name: "b", T: kir.U32}},
		Body: kir.Xor(
			kir.Add(X("a", kir.U32), X("b", kir.U32)),
			kir.Shl(X("a", kir.U32), kir.U(3))),
	}
}

// fnWeighted5 is c0*t0 + c1*t1 + c2*t2 + c3*t3 + c4*t4 folded left to
// right, taps then coefficients.
func fnWeighted5() Fn {
	params := make([]FnParam, 0, 10)
	for _, base := range []string{"t", "c"} {
		for i := 0; i < 5; i++ {
			params = append(params, FnParam{Name: base + string(rune('0'+i)), T: kir.F32})
		}
	}
	body := kir.Expr(kir.F(0))
	for i := 0; i < 5; i++ {
		t := X("t"+string(rune('0'+i)), kir.F32)
		c := X("c"+string(rune('0'+i)), kir.F32)
		body = kir.Add(body, kir.Mul(c, t))
	}
	return Fn{Params: params, Body: body}
}

// fnAvg3 averages three taps without coefficients.
func fnAvg3() Fn {
	return Fn{
		Params: []FnParam{{Name: "a", T: kir.F32}, {Name: "b", T: kir.F32}, {Name: "c", T: kir.F32}},
		Body: kir.Mul(
			kir.Add(kir.Add(X("a", kir.F32), X("b", kir.F32)), X("c", kir.F32)),
			kir.F(1.0/3.0)),
	}
}

func f32Bits(fs []float32) []uint32 {
	out := make([]uint32, len(fs))
	for i, f := range fs {
		out[i] = math.Float32bits(f)
	}
	return out
}

// soundnessCase pairs a program with concrete inputs.
type soundnessCase struct {
	prog  Program
	shape Shape
	in    EvalInputs
}

func soundnessCases(t testing.TB) []soundnessCase {
	rng := workload.NewRNG(99)
	fdata := func(n int) []uint32 { return f32Bits(rng.Floats(n, -1, 1)) }
	udata := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = rng.Uint32() % 1000
		}
		return out
	}

	const n1d = 1000 // not a multiple of any block*coarsen: exercises guards
	const nScan = 768
	const nMxM = 32
	const w, h = 40, 24

	cases := []soundnessCase{
		{
			prog:  &MapProg{Name: "mapchain", Root: Map(fnAdd1(), Map(fnScale2(), In("a", kir.F32)))},
			shape: Shape{N: n1d},
			in:    EvalInputs{Bufs: map[string][]uint32{"a": fdata(n1d)}},
		},
		{
			prog:  &MapProg{Name: "zipmix", Root: Map(fnScale2(), ZipN(fnAddF(), Map(fnSquare(), In("a", kir.F32)), In("b", kir.F32)))},
			shape: Shape{N: n1d},
			in:    EvalInputs{Bufs: map[string][]uint32{"a": fdata(n1d), "b": fdata(n1d)}},
		},
		{
			prog:  &MapProg{Name: "zipu", Root: Zip(fnMixU(), In("a", kir.U32), In("b", kir.U32))},
			shape: Shape{N: n1d},
			in:    EvalInputs{Bufs: map[string][]uint32{"a": udata(n1d), "b": udata(n1d)}},
		},
		{
			prog: &ReduceProg{Name: "sumsq", Root: Map(fnSquare(), In("a", kir.F32)),
				Combine: fnAddF(), Identity: math.Float32bits(0)},
			shape: Shape{N: n1d},
			in:    EvalInputs{Bufs: map[string][]uint32{"a": fdata(n1d)}},
		},
		{
			prog: &ReduceProg{Name: "maxu", Root: In("a", kir.U32),
				Combine: fnMaxU(), Identity: 0},
			shape: Shape{N: n1d},
			in:    EvalInputs{Bufs: map[string][]uint32{"a": udata(n1d)}},
		},
		{
			prog: &ScanProg{Name: "scanu", Input: "a", Elem: kir.U32,
				Combine: fnAddU(), Identity: 0},
			shape: Shape{N: nScan},
			in:    EvalInputs{Bufs: map[string][]uint32{"a": udata(nScan)}},
		},
		{
			prog: &Stencil2DProg{Name: "cross5", Input: "img",
				Taps:   []Tap{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}},
				Coeffs: []float32{0.5, 0.125, 0.125, 0.125, 0.125},
				Fn:     fnWeighted5()},
			shape: Shape{W: w, H: h},
			in: EvalInputs{
				Bufs:    map[string][]uint32{"img": f32Bits(workload.GrayImage(w, h, 7))},
				OutInit: f32Bits(workload.GrayImage(w, h, 7)),
			},
		},
		{
			prog: &Stencil2DProg{Name: "avg3", Input: "img",
				Taps: []Tap{{0, -1}, {0, 0}, {0, 1}},
				Fn:   fnAvg3()},
			shape: Shape{W: w, H: h},
			in:    EvalInputs{Bufs: map[string][]uint32{"img": f32Bits(workload.GrayImage(w, h, 8))}},
		},
		{
			prog:  &MatMulProg{Name: "mm"},
			shape: Shape{N: nMxM},
			in: EvalInputs{Bufs: map[string][]uint32{
				"A": fdata(nMxM * nMxM), "B": fdata(nMxM * nMxM)}},
		},
	}
	for _, c := range cases {
		if err := c.prog.Validate(); err != nil {
			t.Fatalf("%s: invalid test program: %v", c.prog.ProgName(), err)
		}
	}
	return cases
}

// TestRuleSoundness is the heart of the pattern layer's safety argument:
// every schedule in every program's rule space must execute bit-identically
// to the schedule-aware evaluator.
func TestRuleSoundness(t *testing.T) {
	for _, c := range soundnessCases(t) {
		c := c
		t.Run(c.prog.ProgName(), func(t *testing.T) {
			t.Parallel()
			space := Space(c.prog)
			if len(space) < 2 {
				t.Fatalf("rule space has only %d schedules", len(space))
			}
			if space[0].Mangle() != Canonical(c.prog).Mangle() {
				t.Fatalf("space[0] = %s, want canonical %s", space[0].Mangle(), Canonical(c.prog).Mangle())
			}
			for _, s := range space {
				want, err := Eval(c.prog, s, c.shape, c.in)
				if err != nil {
					t.Fatalf("%s: eval: %v", s.Mangle(), err)
				}
				l, err := Lower(c.prog, s, c.shape)
				if err != nil {
					t.Fatalf("%s: lower: %v", s.Mangle(), err)
				}
				got, err := RunLowered(l, c.in)
				if err != nil {
					t.Fatalf("%s: run: %v", s.Mangle(), err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: output length %d, evaluator %d", s.Mangle(), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: word %d: kernel %#x, evaluator %#x", s.Mangle(), i, got[i], want[i])
					}
				}
			}
			t.Logf("%s: %d schedules bit-identical", c.prog.ProgName(), len(space))
		})
	}
}

// TestScheduleIndependentKindsAgreeAcrossSpace pins the stronger property
// integer programs have: schedules that only
// reorganise work (everything except float reassociation) leave the
// evaluator's answer untouched. For u32 programs even reassociating rules
// are bitwise no-ops, so ALL schedules must agree with the canonical one.
func TestScheduleIndependentKindsAgreeAcrossSpace(t *testing.T) {
	for _, c := range soundnessCases(t) {
		switch c.prog.ProgName() {
		case "zipu", "scanu", "maxu":
		default:
			continue
		}
		canon, err := Eval(c.prog, Canonical(c.prog), c.shape, c.in)
		if err != nil {
			t.Fatalf("%s: canonical eval: %v", c.prog.ProgName(), err)
		}
		for _, s := range Space(c.prog) {
			if s.BlockX != Canonical(c.prog).BlockX {
				// Different block sizes change reduce partial counts; the
				// invariant is about same-geometry reorganisation for reduce,
				// but scan/map outputs are geometry-independent.
				if c.prog.Kind() == KindReduce {
					continue
				}
			}
			got, err := Eval(c.prog, s, c.shape, c.in)
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", c.prog.ProgName(), s.Mangle(), err)
			}
			if c.prog.Kind() == KindReduce && len(got) != len(canon) {
				continue
			}
			for i := range got {
				if got[i] != canon[i] {
					t.Fatalf("%s/%s: word %d differs from canonical: %#x vs %#x",
						c.prog.ProgName(), s.Mangle(), i, got[i], canon[i])
				}
			}
		}
	}
}
