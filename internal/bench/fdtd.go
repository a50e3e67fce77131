package bench

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

const (
	fdtdRadius  = 4
	fdtdBlock   = 8                        // 8x8 thread blocks
	fdtdTileDim = fdtdBlock + 2*fdtdRadius // 16x16 shared tile with halo
	fdtdUnrollA = 9                        // "#pragma unroll 9" at the z loop (point a)
)

// fdtdCoeffs are the finite-difference weights (centre + per-distance).
var fdtdCoeffs = []float32{0.30, 0.11, 0.06, 0.04, 0.02}

// FDTDKernel builds the finite-difference time-domain kernel in the NSDK
// FDTD3d shape: a 2-D thread grid marches through the z-planes keeping the
// z-neighbourhood in a per-thread register pipeline (local array) and the
// xy-plane in a shared halo tile. unrollA/unrollB place "#pragma unroll"
// at the paper's two unroll points (Fig. 6/7): point a is the
// runtime-bounded z loop (factor 9), point b is the radius loop.
func FDTDKernel(unrollA, unrollB bool) *kir.Kernel {
	b := kir.NewKernel("fdtd")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	coef := b.ConstBuffer("coef", kir.F32)
	w := b.ScalarParam("w", kir.U32)
	h := b.ScalarParam("h", kir.U32)
	dimz := b.ScalarParam("dimz", kir.U32)
	queue := b.LocalArray("queue", kir.F32, 2*fdtdRadius+1)
	tile := b.SharedArray("tile", kir.F32, fdtdTileDim*fdtdTileDim)

	tx := kir.Bi(kir.TidX)
	ty := kir.Bi(kir.TidY)
	x := b.Declare("x", b.GlobalIDX())
	y := b.Declare("y", b.GlobalIDY())
	lin := b.Declare("lin", kir.Add(kir.Mul(ty, kir.U(fdtdBlock)), tx))
	plane := b.Declare("plane", kir.Mul(w, h))
	base := b.Declare("basexy", kir.Add(kir.Mul(y, w), x))

	// clampW/clampH fold an unsigned coordinate (wrapped when negative)
	// back into the image; halo loads of border blocks read clamped texels
	// whose results the interior guard never consumes.
	clamp := func(v kir.Expr, limit kir.Expr) kir.Expr {
		big := kir.Ge(v, limit)
		neg := kir.Ge(v, kir.U(1<<31))
		return kir.Select(big, kir.Select(neg, kir.U(0), kir.Sub(limit, kir.U(1))), v)
	}

	// Prime the z pipeline with planes 0..2R (the register queue is
	// explicitly unrolled in the source, as in NSDK FDTD3d).
	b.ForUnroll("q", kir.U(0), kir.U(2*fdtdRadius+1), kir.U(1), kir.UnrollFull, func(q kir.Expr) {
		b.Store(queue, q, b.Load(in, kir.Add(base, kir.Mul(q, plane))))
	})

	inside := kir.LAnd(
		kir.LAnd(kir.Ge(x, kir.U(fdtdRadius)), kir.Lt(x, kir.Sub(w, kir.U(fdtdRadius)))),
		kir.LAnd(kir.Ge(y, kir.U(fdtdRadius)), kir.Lt(y, kir.Sub(h, kir.U(fdtdRadius)))))

	ua, ub := 0, 0
	if unrollA {
		ua = fdtdUnrollA
	}
	if unrollB {
		ub = kir.UnrollFull
	}
	// Point a: step through the xy-planes.
	b.ForUnroll("iz", kir.U(0), dimz, kir.U(1), ua, func(iz kir.Expr) {
		z := b.Declare("z", kir.Add(iz, kir.U(fdtdRadius)))
		zoff := b.Declare("zoff", kir.Mul(z, plane))

		// Cooperative halo-tile load: 256 texels, 4 per thread.
		b.For("t", kir.U(0), kir.U(fdtdTileDim*fdtdTileDim/(fdtdBlock*fdtdBlock)), kir.U(1), func(t kir.Expr) {
			li := b.Declare("li", kir.Add(lin, kir.Mul(t, kir.U(fdtdBlock*fdtdBlock))))
			lx := b.Declare("lx", kir.And(li, kir.U(fdtdTileDim-1)))
			ly := b.Declare("ly", kir.Shr(li, kir.U(4)))
			gx := b.Declare("gx", clamp(kir.Sub(kir.Add(kir.Mul(kir.Bi(kir.CtaidX), kir.U(fdtdBlock)), lx), kir.U(fdtdRadius)), w))
			gy := b.Declare("gy", clamp(kir.Sub(kir.Add(kir.Mul(kir.Bi(kir.CtaidY), kir.U(fdtdBlock)), ly), kir.U(fdtdRadius)), h))
			b.Store(tile, li, b.Load(in, kir.Add(kir.Add(kir.Mul(gy, w), gx), zoff)))
		})
		b.Barrier()

		b.If(inside, func() {
			val := b.Declare("val", kir.Mul(b.Load(coef, kir.U(0)), b.Load(queue, kir.U(fdtdRadius))))
			cx := kir.Add(tx, kir.U(fdtdRadius))
			cy := kir.Add(ty, kir.U(fdtdRadius))
			// Point b: the radius loop.
			b.ForUnroll("i", kir.U(1), kir.U(fdtdRadius+1), kir.U(1), ub, func(i kir.Expr) {
				zpair := kir.Add(b.Load(queue, kir.Sub(kir.U(fdtdRadius), i)),
					b.Load(queue, kir.Add(kir.U(fdtdRadius), i)))
				xpair := kir.Add(
					b.Load(tile, kir.Add(kir.Mul(cy, kir.U(fdtdTileDim)), kir.Sub(cx, i))),
					b.Load(tile, kir.Add(kir.Mul(cy, kir.U(fdtdTileDim)), kir.Add(cx, i))))
				ypair := kir.Add(
					b.Load(tile, kir.Add(kir.Mul(kir.Sub(cy, i), kir.U(fdtdTileDim)), cx)),
					b.Load(tile, kir.Add(kir.Mul(kir.Add(cy, i), kir.U(fdtdTileDim)), cx)))
				b.Assign(val, kir.Add(val, kir.Mul(b.Load(coef, i),
					kir.Add(zpair, kir.Add(xpair, ypair)))))
			})
			b.Store(out, kir.Add(base, zoff), val)
		})
		b.Barrier()

		// Advance the z pipeline (explicitly unrolled in the source).
		b.ForUnroll("q", kir.U(0), kir.U(2*fdtdRadius), kir.U(1), kir.UnrollFull, func(q kir.Expr) {
			b.Store(queue, q, b.Load(queue, kir.Add(q, kir.U(1))))
		})
		b.Store(queue, kir.U(2*fdtdRadius),
			b.Load(in, kir.Add(base, kir.Mul(kir.Add(z, kir.U(fdtdRadius+1)), plane))))
	})
	return b.MustBuild()
}

// fdtdRef applies one reference step over the interior.
func fdtdRef(in []float32, w, h, zdim int) []float32 {
	out := make([]float32, len(in))
	copy(out, in)
	plane := w * h
	for z := fdtdRadius; z < zdim-fdtdRadius-1; z++ {
		for y := fdtdRadius; y < h-fdtdRadius; y++ {
			for x := fdtdRadius; x < w-fdtdRadius; x++ {
				base := y*w + x
				val := fdtdCoeffs[0] * in[base+z*plane]
				for i := 1; i <= fdtdRadius; i++ {
					zp := in[base+(z-i)*plane] + in[base+(z+i)*plane]
					xp := in[base-i+z*plane] + in[base+i+z*plane]
					yp := in[base-i*w+z*plane] + in[base+i*w+z*plane]
					val += fdtdCoeffs[i] * (zp + (xp + yp))
				}
				out[base+z*plane] = val
			}
		}
	}
	return out
}

// runFDTD measures FDTD throughput in MPoints/sec (Table II) with the
// unroll-point placement selected by cfg.UnrollA / cfg.UnrollB.
func runFDTD(d Driver, cfg Config) *Result {
	w := cfg.scale(96)
	h := cfg.scale(96)
	if w < 4*fdtdRadius {
		w, h = 4*fdtdRadius, 4*fdtdRadius
	}
	w, h = (w/fdtdBlock)*fdtdBlock, (h/fdtdBlock)*fdtdBlock
	dimz := 32
	zdim := dimz + 2*fdtdRadius + 1 // padded input depth
	vol := workload.NewRNG(43).Floats(w*h*zdim, -1, 1)

	k := FDTDKernel(cfg.UnrollA, cfg.UnrollB)
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, err)
	}
	inBuf, err := allocWriteF(d, vol)
	if err != nil {
		return abort(d, err)
	}
	outBuf, err := allocWriteF(d, vol)
	if err != nil {
		return abort(d, err)
	}
	coefBuf, err := allocWriteF(d, fdtdCoeffs)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	block := sim.Dim3{X: fdtdBlock, Y: fdtdBlock}
	grid := sim.Dim3{X: w / fdtdBlock, Y: h / fdtdBlock}
	if err := d.Launch(mod, "fdtd", grid, block,
		B(inBuf), B(outBuf), B(coefBuf), V(uint32(w)), V(uint32(h)), V(uint32(dimz))); err != nil {
		return abort(d, err)
	}

	got, err := readF32(d, outBuf, w*h*zdim)
	if err != nil {
		return abort(d, err)
	}
	want := fdtdRef(vol, w, h, zdim)
	correct := true
	for z := fdtdRadius; z < fdtdRadius+dimz && correct; z++ {
		for y := fdtdRadius; y < h-fdtdRadius; y++ {
			for x := fdtdRadius; x < w-fdtdRadius; x++ {
				i := z*w*h + y*w + x
				if !f32eq(got[i], want[i], 1e-3) {
					correct = false
					break
				}
			}
		}
	}

	points := float64(w * h * dimz)
	return result(d, points, correct)
}
