package bench

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// Stencil weights (SHOC Stencil2D shape: centre, edge, diagonal).
const (
	st2dWc = float32(0.25)
	st2dWa = float32(0.15)
	st2dWd = float32(0.05)
)

// St2DKernel builds one step of the nine-point 2-D stencil.
func St2DKernel() *kir.Kernel {
	b := kir.NewKernel("stencil9")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	w := b.ScalarParam("w", kir.U32)
	h := b.ScalarParam("h", kir.U32)

	x := b.Declare("x", b.GlobalIDX())
	y := b.Declare("y", b.GlobalIDY())
	inside := kir.LAnd(
		kir.LAnd(kir.Ge(x, kir.U(1)), kir.Lt(x, kir.Sub(w, kir.U(1)))),
		kir.LAnd(kir.Ge(y, kir.U(1)), kir.Lt(y, kir.Sub(h, kir.U(1)))))
	b.If(inside, func() {
		at := func(dy, dx int32) kir.Expr {
			row := kir.Add(y, kir.CastTo(kir.U32, kir.I(dy)))
			col := kir.Add(x, kir.CastTo(kir.U32, kir.I(dx)))
			return b.Load(in, kir.Add(kir.Mul(row, w), col))
		}
		centre := b.Declare("centre", kir.Mul(kir.F(st2dWc), at(0, 0)))
		adj := b.Declare("adj", kir.Mul(kir.F(st2dWa),
			kir.Add(kir.Add(at(-1, 0), at(1, 0)), kir.Add(at(0, -1), at(0, 1)))))
		diag := b.Declare("diag", kir.Mul(kir.F(st2dWd),
			kir.Add(kir.Add(at(-1, -1), at(-1, 1)), kir.Add(at(1, -1), at(1, 1)))))
		b.Store(out, kir.Add(kir.Mul(y, w), x), kir.Add(kir.Add(centre, adj), diag))
	})
	return b.MustBuild()
}

// st2dRef applies one reference step.
func st2dRef(in []float32, w, h int) []float32 {
	out := make([]float32, len(in))
	copy(out, in) // borders pass through untouched in the device version too
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			c := st2dWc * in[y*w+x]
			a := st2dWa * (in[(y-1)*w+x] + in[(y+1)*w+x] + in[y*w+x-1] + in[y*w+x+1])
			dg := st2dWd * (in[(y-1)*w+x-1] + in[(y-1)*w+x+1] + in[(y+1)*w+x-1] + in[(y+1)*w+x+1])
			out[y*w+x] = c + a + dg
		}
	}
	return out
}

// st2dSteps runs steps stencil applications ping-ponged over two buffers
// seeded with img (so borders pass through) and returns the last output.
// An empty cfg.Pattern runs the hand-written kernel, a schedule the
// single-step pattern lowering.
func st2dSteps(d Driver, cfg Config, img []float32, w, h, steps int) ([]float32, error) {
	var launch func(src, dst Buf) error
	if cfg.Pattern != "" {
		l, err := patternLower("St2D", cfg)
		if err != nil {
			return nil, err
		}
		mod, err := d.Build(l.Kernels...)
		if err != nil {
			return nil, err
		}
		launch = func(src, dst Buf) error {
			return LaunchOne(d, mod, map[string]Buf{"in": src, "out": dst}, l.Launches[0])
		}
	} else {
		mod, err := d.Build(St2DKernel())
		if err != nil {
			return nil, err
		}
		grid := sim.Dim3{X: (w + 15) / 16, Y: (h + 15) / 16}
		launch = func(src, dst Buf) error {
			return d.Launch(mod, "stencil9", grid, sim.Dim3{X: 16, Y: 16},
				B(src), B(dst), V(uint32(w)), V(uint32(h)))
		}
	}
	src, err := allocWriteF(d, img)
	if err != nil {
		return nil, err
	}
	dst, err := allocWriteF(d, img)
	if err != nil {
		return nil, err
	}
	d.ResetTimer()
	for s := 0; s < steps; s++ {
		if err := launch(src, dst); err != nil {
			return nil, err
		}
		src, dst = dst, src
	}
	return readF32(d, src, w*h)
}

// runSt2D measures the two-dimensional nine-point stencil (Table II
// metric: seconds) over several ping-pong iterations.
func runSt2D(d Driver, cfg Config) *Result {
	const steps = 4
	shape, _ := PatternShape("St2D", cfg)
	w, h := shape.W, shape.H
	img := workload.GrayImage(w, h, 37)

	got, err := st2dSteps(d, cfg, img, w, h, steps)
	if err != nil {
		return abort(d, err)
	}
	want := img
	for s := 0; s < steps; s++ {
		want = st2dRef(want, w, h)
	}
	correct := true
	for i := range want {
		if !f32eq(got[i], want[i], 1e-3) {
			correct = false
			break
		}
	}
	return result(d, 0, correct)
}
