package bench

// The kernel-source seam: five paper benchmarks (MxM, Reduce, Scan, St2D,
// Sobel) are pattern programs, and Config.Pattern selects the schedule
// they are lowered at. MxM, Reduce and Scan have no other kernel source:
// an empty Config.Pattern is their canonical schedule. St2D and Sobel keep
// their hand-written kernels for an empty Config.Pattern, because no
// schedule compiles to the same instructions (DESIGN.md §10); their
// canonical lowering still reproduces the hand kernel's floating-point
// association, so its device output is bitwise identical (PatternParity).
// Other schedules are the rewrite rules the autotuner searches; each run
// still passes the benchmark's own correctness check against the host
// reference.

import (
	"fmt"
	"math"

	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
	"gpucmp/internal/sim"
)

// patternBenchNames lists the pattern-portable benchmarks in Registry
// order.
var patternBenchNames = []string{"Sobel", "Reduce", "St2D", "Scan", "MxM"}

// PatternBenchNames lists the benchmarks expressible as pattern programs.
func PatternBenchNames() []string {
	out := make([]string, len(patternBenchNames))
	copy(out, patternBenchNames)
	return out
}

// IsPatternBench reports whether the benchmark accepts Config.Pattern.
func IsPatternBench(name string) bool {
	for _, n := range patternBenchNames {
		if n == name {
			return true
		}
	}
	return false
}

func patternAddF() pattern.Fn {
	return pattern.Fn{
		Params: []pattern.FnParam{{Name: "a", T: kir.F32}, {Name: "b", T: kir.F32}},
		Body:   kir.Add(pattern.X("a", kir.F32), pattern.X("b", kir.F32)),
	}
}

func patternAddU() pattern.Fn {
	return pattern.Fn{
		Params: []pattern.FnParam{{Name: "a", T: kir.U32}, {Name: "b", T: kir.U32}},
		Body:   kir.Add(pattern.X("a", kir.U32), pattern.X("b", kir.U32)),
	}
}

// st2dTaps is the nine-point neighbourhood in the order the St2D element
// function consumes it: centre, the four edge-adjacent cells, the four
// diagonals.
var st2dTaps = []pattern.Tap{
	{DY: 0, DX: 0},
	{DY: -1, DX: 0}, {DY: 1, DX: 0}, {DY: 0, DX: -1}, {DY: 0, DX: 1},
	{DY: -1, DX: -1}, {DY: -1, DX: 1}, {DY: 1, DX: -1}, {DY: 1, DX: 1},
}

// st2dFn reproduces St2DKernel's exact float association:
// 0.25*c + (0.15*((n+s)+(w+e))) + (0.05*((nw+ne)+(sw+se))), combined as
// (centre + adj) + diag.
func st2dFn() pattern.Fn {
	params := make([]pattern.FnParam, 9)
	t := make([]kir.Expr, 9)
	for i := range params {
		name := fmt.Sprintf("t%d", i)
		params[i] = pattern.FnParam{Name: name, T: kir.F32}
		t[i] = pattern.X(name, kir.F32)
	}
	centre := kir.Mul(kir.F(st2dWc), t[0])
	adj := kir.Mul(kir.F(st2dWa), kir.Add(kir.Add(t[1], t[2]), kir.Add(t[3], t[4])))
	diag := kir.Mul(kir.F(st2dWd), kir.Add(kir.Add(t[5], t[6]), kir.Add(t[7], t[8])))
	return pattern.Fn{Params: params, Body: kir.Add(kir.Add(centre, adj), diag)}
}

// sobelTaps is the 3x3 neighbourhood in the fy-major order SobelKernel's
// unrolled loops visit it.
func sobelTaps() []pattern.Tap {
	taps := make([]pattern.Tap, 0, 9)
	for fy := -1; fy <= 1; fy++ {
		for fx := -1; fx <= 1; fx++ {
			taps = append(taps, pattern.Tap{DY: fy, DX: fx})
		}
	}
	return taps
}

// sobelFn reproduces SobelKernel's accumulation: sum = 0; sum += pix*coef
// in fy-major tap order.
func sobelFn() pattern.Fn {
	params := make([]pattern.FnParam, 0, 18)
	for _, base := range []string{"t", "c"} {
		for i := 0; i < 9; i++ {
			params = append(params, pattern.FnParam{Name: fmt.Sprintf("%s%d", base, i), T: kir.F32})
		}
	}
	body := kir.Expr(kir.F(0))
	for i := 0; i < 9; i++ {
		body = kir.Add(body, kir.Mul(
			pattern.X(fmt.Sprintf("t%d", i), kir.F32),
			pattern.X(fmt.Sprintf("c%d", i), kir.F32)))
	}
	return pattern.Fn{Params: params, Body: body}
}

// PatternProgram returns the pattern program behind a benchmark, or false
// when the benchmark is not pattern-portable.
func PatternProgram(name string) (pattern.Program, bool) {
	switch name {
	case "MxM":
		return &pattern.MatMulProg{Name: "mxm"}, true
	case "Reduce":
		return &pattern.ReduceProg{Name: "reduce", Root: pattern.In("in", kir.F32),
			Combine: patternAddF(), Identity: math.Float32bits(0)}, true
	case "Scan":
		return &pattern.ScanProg{Name: "scan", Input: "in", Elem: kir.U32,
			Combine: patternAddU(), Identity: 0}, true
	case "St2D":
		return &pattern.Stencil2DProg{Name: "st2d", Input: "in", Taps: st2dTaps, Fn: st2dFn()}, true
	case "Sobel":
		return &pattern.Stencil2DProg{Name: "sobel", Input: "img", Taps: sobelTaps(),
			Coeffs: sobelFilterX, Fn: sobelFn()}, true
	default:
		return nil, false
	}
}

// PatternShape is each pattern benchmark's problem size at cfg.Scale, so
// every schedule, and St2D's and Sobel's hand kernels, process identical
// data.
func PatternShape(name string, cfg Config) (pattern.Shape, bool) {
	switch name {
	case "MxM":
		n := cfg.scale(256)
		if n < mxmTile {
			n = mxmTile
		}
		n = (n / mxmTile) * mxmTile
		return pattern.Shape{N: n}, true
	case "Reduce":
		n := cfg.scale(1 << 20)
		if n < reduceBlock {
			n = reduceBlock
		}
		return pattern.Shape{N: n}, true
	case "Scan":
		n := cfg.scale(256 * 1024)
		n = (n / scanBlock) * scanBlock
		if n < scanBlock {
			n = scanBlock
		}
		return pattern.Shape{N: n}, true
	case "St2D":
		w := cfg.scale(512)
		h := cfg.scale(512)
		if w < 32 {
			w, h = 32, 32
		}
		return pattern.Shape{W: w, H: h}, true
	case "Sobel":
		w := cfg.scale(1024)
		h := cfg.scale(1024)
		if w < 16 {
			w, h = 16, 16
		}
		return pattern.Shape{W: w, H: h}, true
	default:
		return pattern.Shape{}, false
	}
}

// PatternSpace enumerates the schedule mangles the autotuner searches for
// a benchmark (canonical first).
func PatternSpace(name string) []string {
	p, ok := PatternProgram(name)
	if !ok {
		return nil
	}
	space := pattern.Space(p)
	out := make([]string, len(space))
	for i, s := range space {
		out[i] = s.Mangle()
	}
	return out
}

// PatternCanonical returns the canonical schedule mangle for a benchmark.
func PatternCanonical(name string) (string, bool) {
	p, ok := PatternProgram(name)
	if !ok {
		return "", false
	}
	return pattern.Canonical(p).Mangle(), true
}

// patternLower lowers the benchmark's program at cfg.Pattern, or at its
// canonical schedule when cfg.Pattern is empty.
func patternLower(name string, cfg Config) (*pattern.Lowered, error) {
	p, ok := PatternProgram(name)
	if !ok {
		return nil, fmt.Errorf("bench: %s has no pattern program", name)
	}
	s := pattern.Canonical(p)
	if cfg.Pattern != "" {
		var err error
		if s, err = pattern.ParseSchedule(cfg.Pattern); err != nil {
			return nil, err
		}
	}
	shape, _ := PatternShape(name, cfg)
	return pattern.Lower(p, s, shape)
}

// runLowered lowers the benchmark at cfg.Pattern, builds its kernels,
// uploads its buffers and runs every launch on a freshly reset clock.
// Inputs come from the caller, keyed by the program's buffer names;
// coefficient tables get their pinned contents; outputs and temps start
// zeroed. The caller reads the result from bufs[l.Out].
func runLowered(d Driver, name string, cfg Config, inputs map[string][]uint32) (l *pattern.Lowered, bufs map[string]Buf, err error) {
	if l, err = patternLower(name, cfg); err != nil {
		return nil, nil, err
	}
	mod, err := d.Build(l.Kernels...)
	if err != nil {
		return nil, nil, err
	}
	bufs = map[string]Buf{}
	for _, bs := range l.Bufs {
		words := make([]uint32, bs.Words)
		switch bs.Role {
		case pattern.RoleInput:
			src := inputs[bs.Name]
			if len(src) < bs.Words {
				return nil, nil, fmt.Errorf("bench: pattern input %q has %d words, need %d", bs.Name, len(src), bs.Words)
			}
			copy(words, src)
		case pattern.RoleCoeff:
			copy(words, bs.Init)
		}
		if bufs[bs.Name], err = allocWrite(d, words); err != nil {
			return nil, nil, err
		}
	}
	d.ResetTimer()
	for _, ln := range l.Launches {
		if err := launchOne(d, mod, bufs, ln); err != nil {
			return nil, nil, err
		}
	}
	return l, bufs, nil
}

// launchOne runs one launch of a lowered program on the driver.
func launchOne(d Driver, mod Module, bufs map[string]Buf, ln pattern.Launch) error {
	args := make([]Arg, len(ln.Args))
	for i, a := range ln.Args {
		if a.IsVal {
			args[i] = V(a.Val)
		} else {
			b, ok := bufs[a.Buf]
			if !ok {
				return fmt.Errorf("bench: pattern launch %s references unknown buffer %q", ln.Kernel, a.Buf)
			}
			args[i] = B(b)
		}
	}
	return d.Launch(mod, ln.Kernel,
		sim.Dim3{X: ln.GridX, Y: ln.GridY},
		sim.Dim3{X: ln.BlockX, Y: ln.BlockY}, args...)
}
