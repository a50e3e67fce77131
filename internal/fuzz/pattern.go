package fuzz

// Differential fuzzing of the pattern DSL (internal/pattern): a seeded
// generator of random combinator programs — map chains, zips, reductions,
// scans, stencils — whose ground truth is the schedule-aware evaluator
// pattern.Eval. Every case is lowered at several schedules from its rule
// space, compiled with both personalities, executed on the modelled
// devices, and diffed bit-for-bit. Where the kernel fuzzer (gen.go) guards
// the KIR->PTX->SIMT stack for hand-written kernels, this one guards the
// extra layer the pattern DSL adds on top: combinator inlining, rewrite
// rules, and launch-geometry derivation.
//
// Generated element functions avoid f32 division: a NaN produced from 0/0
// carries an implementation-defined payload, and the bitwise oracle would
// report payload differences that no real benchmark can observe. All other
// arithmetic (including overflow to infinity) is deterministic and stays
// in the game.

import (
	"errors"
	"fmt"
	"math"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// PatternCase is one self-contained pattern fuzz case: a program, the
// shape and inputs it runs with, and the schedules to exercise.
type PatternCase struct {
	Seed  uint64
	Prog  pattern.Program
	Shape pattern.Shape
	// Scheds are the rule-space points this case exercises (always
	// includes the canonical schedule first).
	Scheds []pattern.Schedule
	In     pattern.EvalInputs
}

type prng struct{ r *workload.RNG }

func (p prng) intn(n int) int    { return p.r.Intn(n) }
func (p prng) u32() uint32       { return p.r.Uint32() }
func (p prng) oneIn(n int) bool  { return p.r.Intn(n) == 0 }
func (p prng) f32small() float32 { return p.r.Float32()*4 - 2 } // [-2, 2)
func (p prng) pick(n int) int    { return p.r.Intn(n) }
func (p prng) words(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = p.r.Uint32()
	}
	return out
}
func (p prng) f32words(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = f32bits(p.f32small())
	}
	return out
}

func f32bits(f float32) uint32 {
	return math.Float32bits(f)
}

// genFnExpr builds a random pure expression over the declared params.
// No division (see package comment), no loads, no builtins.
func genFnExpr(g prng, params []pattern.FnParam, t kir.Type, depth int) kir.Expr {
	leaf := func() kir.Expr {
		// Bias toward params so every input usually matters.
		if !g.oneIn(4) {
			pp := params[g.pick(len(params))]
			return pattern.X(pp.Name, pp.T)
		}
		if t == kir.F32 {
			return kir.F(g.f32small())
		}
		return kir.U(g.u32() % 64)
	}
	if depth <= 0 {
		return leaf()
	}
	a := genFnExpr(g, params, t, depth-1)
	b := genFnExpr(g, params, t, depth-1)
	if t == kir.F32 {
		switch g.pick(5) {
		case 0:
			return kir.Add(a, b)
		case 1:
			return kir.Sub(a, b)
		case 2:
			return kir.Mul(a, b)
		case 3:
			return kir.Min(a, b)
		default:
			return kir.Max(a, b)
		}
	}
	switch g.pick(9) {
	case 0:
		return kir.Add(a, b)
	case 1:
		return kir.Sub(a, b)
	case 2:
		return kir.Mul(a, b)
	case 3:
		return kir.And(a, b)
	case 4:
		return kir.Or(a, b)
	case 5:
		return kir.Xor(a, b)
	case 6:
		return kir.Shl(a, kir.U(uint32(g.pick(8))))
	case 7:
		return kir.Min(a, b)
	default:
		return kir.Select(kir.Lt(a, b), b, a)
	}
}

// genUnaryFn makes a random one-parameter element function.
func genUnaryFn(g prng, t kir.Type, depth int) pattern.Fn {
	params := []pattern.FnParam{{Name: "x", T: t}}
	return pattern.Fn{Params: params, Body: genFnExpr(g, params, t, depth)}
}

// genBinaryFn makes a random two-parameter function (zip body or combine).
func genBinaryFn(g prng, t kir.Type, depth int) pattern.Fn {
	params := []pattern.FnParam{{Name: "a", T: t}, {Name: "b", T: t}}
	return pattern.Fn{Params: params, Body: genFnExpr(g, params, t, depth)}
}

// genMapTree builds a random combinator graph over the declared inputs.
func genMapTree(g prng, t kir.Type, inputs []string, depth int) *pattern.Node {
	if depth <= 0 || (len(inputs) == 1 && g.oneIn(3)) {
		return pattern.In(inputs[g.pick(len(inputs))], t)
	}
	if len(inputs) > 1 && g.oneIn(2) {
		return pattern.Zip(genBinaryFn(g, t, 2),
			genMapTree(g, t, inputs, depth-1),
			genMapTree(g, t, inputs, depth-1))
	}
	return pattern.Map(genUnaryFn(g, t, 2), genMapTree(g, t, inputs, depth-1))
}

// GenPatternCase builds the deterministic random pattern case for a seed.
func GenPatternCase(seed uint64) *PatternCase {
	g := prng{r: workload.NewRNG(seed*0x9e3779b97f4a7c15 + 0xd1b54a32d192ed03)}
	t := kir.U32
	if g.oneIn(2) {
		t = kir.F32
	}
	data := func(n int) []uint32 {
		if t == kir.F32 {
			return g.f32words(n)
		}
		return g.words(n)
	}

	c := &PatternCase{Seed: seed, In: pattern.EvalInputs{Bufs: map[string][]uint32{}}}
	name := fmt.Sprintf("pf%d", seed)
	switch g.pick(5) {
	case 0: // map chain / zip tree over 1-2 inputs
		n := 65 + g.intn(448) // deliberately off any block multiple
		inputs := []string{"a"}
		if g.oneIn(2) {
			inputs = append(inputs, "b")
		}
		root := genMapTree(g, t, inputs, 1+g.intn(3))
		if root.Input != "" {
			// A bare input is not a valid map program; force one apply.
			root = pattern.Map(genUnaryFn(g, t, 2), root)
		}
		c.Prog = &pattern.MapProg{Name: name, Root: root}
		c.Shape = pattern.Shape{N: n}
		for _, in := range inputs {
			c.In.Bufs[in] = data(n)
		}
	case 1: // reduce over a mapped root
		n := 65 + g.intn(448)
		root := genMapTree(g, t, []string{"a"}, 1+g.intn(2))
		c.Prog = &pattern.ReduceProg{Name: name, Root: root,
			Combine: genBinaryFn(g, t, 2), Identity: identityWord(g, t)}
		c.Shape = pattern.Shape{N: n}
		c.In.Bufs["a"] = data(n)
	case 2: // scan
		n := 256 * (1 + g.intn(2))
		c.Prog = &pattern.ScanProg{Name: name, Input: "a", Elem: t,
			Combine: genBinaryFn(g, t, 2), Identity: identityWord(g, t)}
		c.Shape = pattern.Shape{N: n}
		c.In.Bufs["a"] = data(n)
	case 3: // stencil, with or without a coefficient table
		w, h := 10+g.intn(24), 8+g.intn(16)
		r := 1 + g.intn(2)
		taps := []pattern.Tap{{DY: 0, DX: 0}}
		for len(taps) < 3+g.intn(3) {
			taps = append(taps, pattern.Tap{
				DY: g.intn(2*r+1) - r, DX: g.intn(2*r+1) - r})
		}
		var coeffs []float32
		nParams := len(taps)
		params := make([]pattern.FnParam, 0, 2*len(taps))
		for i := range taps {
			params = append(params, pattern.FnParam{Name: fmt.Sprintf("t%d", i), T: kir.F32})
		}
		if g.oneIn(2) {
			coeffs = make([]float32, len(taps))
			for i := range coeffs {
				coeffs[i] = g.f32small()
				params = append(params, pattern.FnParam{Name: fmt.Sprintf("c%d", i), T: kir.F32})
			}
			nParams = 2 * len(taps)
		}
		fn := pattern.Fn{Params: params[:nParams], Body: genFnExpr(g, params[:nParams], kir.F32, 3)}
		c.Prog = &pattern.Stencil2DProg{Name: name, Input: "img", Taps: taps, Coeffs: coeffs, Fn: fn}
		c.Shape = pattern.Shape{W: w, H: h}
		c.In.Bufs["img"] = g.f32words(w * h)
		c.In.OutInit = g.f32words(w * h) // border words must be defined
	default: // matmul (fixed structure; exercises tile/unroll schedules)
		n := 16 * (1 + g.intn(2))
		c.Prog = &pattern.MatMulProg{Name: name}
		c.Shape = pattern.Shape{N: n}
		c.In.Bufs["A"] = g.f32words(n * n)
		c.In.Bufs["B"] = g.f32words(n * n)
	}

	// Canonical plus up to two random non-canonical schedules.
	space := pattern.Space(c.Prog)
	c.Scheds = []pattern.Schedule{space[0]}
	for len(c.Scheds) < 3 && len(c.Scheds) < len(space) {
		s := space[1+g.pick(len(space)-1)]
		dup := false
		for _, have := range c.Scheds {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			c.Scheds = append(c.Scheds, s)
		}
	}
	return c
}

func identityWord(g prng, t kir.Type) uint32 {
	if t == kir.F32 {
		return f32bits(g.f32small())
	}
	return g.u32() % 64
}

// PatternResult summarises one case's trip through the pattern oracle.
type PatternResult struct {
	Seed       uint64
	Executions int
	Skipped    []string
	// Failure is the first disagreement found, nil when all executions
	// matched the evaluator.
	Failure error
}

// CheckPattern runs the full pattern oracle for one case: for every
// schedule, the evaluator's output is ground truth; the host reference
// executor (RunLowered) and both personalities on every device must all
// reproduce it bit for bit.
func CheckPattern(c *PatternCase, devices []*arch.Device) (*PatternResult, error) {
	if err := c.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("fuzz: seed %d: invalid program: %w", c.Seed, err)
	}
	if len(devices) == 0 {
		devices = arch.All()
	}
	res := &PatternResult{Seed: c.Seed}
	for _, s := range c.Scheds {
		want, err := pattern.Eval(c.Prog, s, c.Shape, c.In)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: eval %s: %w", c.Seed, s.Mangle(), err)
		}
		l, err := pattern.Lower(c.Prog, s, c.Shape)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: lower %s: %w", c.Seed, s.Mangle(), err)
		}
		host, err := pattern.RunLowered(l, c.In)
		if err != nil {
			return nil, fmt.Errorf("fuzz: seed %d: host run %s: %w", c.Seed, s.Mangle(), err)
		}
		if i, ok := firstDiff(host, want); !ok {
			res.Failure = fmt.Errorf("fuzz: seed %d: %s: host executor out[%d] = %#x, evaluator %#x",
				c.Seed, s.Mangle(), i, host[i], want[i])
			return res, nil
		}
		for _, pers := range Toolchains() {
			kernels := make([]*ptx.Kernel, len(l.Kernels))
			for i, k := range l.Kernels {
				if kernels[i], err = compiler.Compile(k, pers); err != nil {
					return nil, fmt.Errorf("fuzz: seed %d: compile %s (%s, %s): %w",
						c.Seed, k.Name, pers.Name, s.Mangle(), err)
				}
			}
			for _, a := range devices {
				dev, err := sim.NewDevice(a)
				var got []uint32
				if err == nil {
					dev.StepBudget = simStepBudget
					got, _, err = pattern.RunDevice(l, c.In, dev, kernels)
				}
				if err != nil {
					if errors.Is(err, sim.ErrOutOfResources) {
						res.Skipped = append(res.Skipped,
							fmt.Sprintf("%s/%s/%s: %v", pers.Name, a.Name, s.Mangle(), err))
						continue
					}
					return nil, fmt.Errorf("fuzz: seed %d: %s on %s (%s): %w",
						c.Seed, pers.Name, a.Name, s.Mangle(), err)
				}
				res.Executions++
				if i, ok := firstDiff(got, want); !ok {
					res.Failure = fmt.Errorf(
						"fuzz: seed %d: %s on %s (%s): out[%d] = %#x, evaluator %#x\nprogram kernels:\n%s",
						c.Seed, pers.Name, a.Name, s.Mangle(), i, got[i], want[i], formatKernels(l))
					return res, nil
				}
			}
		}
	}
	return res, nil
}

func firstDiff(got, want []uint32) (int, bool) {
	if len(got) != len(want) {
		return 0, false
	}
	for i := range want {
		if got[i] != want[i] {
			return i, false
		}
	}
	return -1, true
}

func formatKernels(l *pattern.Lowered) string {
	s := ""
	for _, k := range l.Kernels {
		s += kir.Format(k) + "\n"
	}
	return s
}

// LaunchProgram wraps one 1-D launch of a lowered pattern program as a
// self-contained fuzz.Program, with the buffer state just before that
// launch reconstructed on the host interpreter — so a diverging pattern
// kernel drops straight into the existing Shrink/bisect machinery.
func LaunchProgram(l *pattern.Lowered, launch int, in pattern.EvalInputs, seed uint64) (*Program, error) {
	k, cfg, err := l.HostLaunch(in, launch)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %w", err)
	}
	if cfg.GridY != 1 || cfg.BlockY != 1 {
		return nil, fmt.Errorf("fuzz: launch %d (%s) is 2-D; the shrink harness is 1-D only", launch, k.Name)
	}
	// The program's output is the lowered program's output when this
	// kernel takes it, else the kernel's last buffer parameter.
	out := ""
	for _, prm := range k.Params {
		if prm.Buffer {
			out = prm.Name
			if prm.Name == l.Out {
				break
			}
		}
	}
	if out == "" {
		return nil, fmt.Errorf("fuzz: kernel %q has no buffer parameters", k.Name)
	}
	return &Program{
		Seed:    seed,
		Kernel:  k,
		Grid:    cfg.GridX,
		Block:   cfg.BlockX,
		Buffers: cfg.Buffers,
		Scalars: cfg.Scalars,
		Out:     out,
	}, nil
}
