package bench

import (
	"math"

	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

const (
	fftN       = 512 // points per FFT
	fftThreads = 64  // work-items per FFT: 8 points each
	fftStages  = 9   // log2(fftN)
)

// FFTKernel builds the batched 512-point forward FFT — the "forward"
// kernel whose PTX statistics the paper tabulates in Table V. One
// work-group transforms one 512-point signal: 64 threads, Stockham
// radix-2 with ping-pong shared arrays, per-thread local staging of the
// 8 input/output points (the source of the ld.local/st.local rows in
// Table V), and constant-trip butterfly loops that the CUDA front-end
// fully unrolls while the OpenCL front-end keeps rolled.
func FFTKernel() *kir.Kernel {
	b := kir.NewKernel("forward")
	inRe := b.GlobalBuffer("inRe", kir.F32)
	inIm := b.GlobalBuffer("inIm", kir.F32)
	outRe := b.GlobalBuffer("outRe", kir.F32)
	outIm := b.GlobalBuffer("outIm", kir.F32)

	s0re := b.SharedArray("s0re", kir.F32, fftN)
	s0im := b.SharedArray("s0im", kir.F32, fftN)
	s1re := b.SharedArray("s1re", kir.F32, fftN)
	s1im := b.SharedArray("s1im", kir.F32, fftN)
	lre := b.LocalArray("lre", kir.F32, 8)
	lim := b.LocalArray("lim", kir.F32, 8)

	tid := kir.Bi(kir.TidX)
	base := b.Declare("base", kir.Mul(kir.Bi(kir.CtaidX), kir.U(fftN)))

	// Load 8 points per thread through the local staging arrays.
	b.For("k", kir.U(0), kir.U(8), kir.U(1), func(k kir.Expr) {
		idx := kir.Add(tid, kir.Mul(k, kir.U(fftThreads)))
		b.Store(lre, k, b.Load(inRe, kir.Add(base, idx)))
		b.Store(lim, k, b.Load(inIm, kir.Add(base, idx)))
	})
	b.For("k", kir.U(0), kir.U(8), kir.U(1), func(k kir.Expr) {
		idx := kir.Add(tid, kir.Mul(k, kir.U(fftThreads)))
		b.Store(s0re, idx, b.Load(lre, k))
		b.Store(s0im, idx, b.Load(lim, k))
	})
	b.Barrier()

	// Nine Stockham stages, emitted inline (source-level), each with a
	// rolled-or-unrolled 4-butterfly loop per thread.
	shared := [2][2]kir.Buf{{s0re, s0im}, {s1re, s1im}}
	for s := 0; s < fftStages; s++ {
		src := shared[s%2]
		dst := shared[1-s%2]
		m := uint32(1) << uint(s) // sub-transform size
		b.For("u", kir.U(0), kir.U(4), kir.U(1), func(u kir.Expr) {
			idx := b.Declare("idx", kir.Add(tid, kir.Mul(u, kir.U(fftThreads))))
			jm := b.Declare("jm", kir.And(idx, kir.U(^(m-1))))
			k := b.Declare("k", kir.And(idx, kir.U(m-1)))
			ang := b.Declare("ang", kir.Mul(kir.CastTo(kir.F32, jm), kir.F(-math.Pi/float32(fftN/2))))
			wr := b.Declare("wr", kir.Cos(ang))
			wi := b.Declare("wi", kir.Sin(ang))
			c0r := b.Declare("c0r", b.Load(src[0], idx))
			c0i := b.Declare("c0i", b.Load(src[1], idx))
			c1r := b.Declare("c1r", b.Load(src[0], kir.Add(idx, kir.U(fftN/2))))
			c1i := b.Declare("c1i", b.Load(src[1], kir.Add(idx, kir.U(fftN/2))))
			o1 := b.Declare("o1", kir.Add(k, kir.Mul(jm, kir.U(2))))
			b.Store(dst[0], o1, kir.Add(c0r, c1r))
			b.Store(dst[1], o1, kir.Add(c0i, c1i))
			dr := b.Declare("dr", kir.Sub(c0r, c1r))
			di := b.Declare("di", kir.Sub(c0i, c1i))
			o2 := kir.Add(o1, kir.U(m))
			b.Store(dst[0], o2, kir.Sub(kir.Mul(dr, wr), kir.Mul(di, wi)))
			b.Store(dst[1], o2, kir.Add(kir.Mul(dr, wi), kir.Mul(di, wr)))
		})
		b.Barrier()
	}

	// Store through the local staging arrays. After 9 stages the result
	// sits in the s1 pair (odd stage count).
	final := shared[fftStages%2]
	b.For("k", kir.U(0), kir.U(8), kir.U(1), func(k kir.Expr) {
		idx := kir.Add(tid, kir.Mul(k, kir.U(fftThreads)))
		b.Store(lre, k, b.Load(final[0], idx))
		b.Store(lim, k, b.Load(final[1], idx))
	})
	b.For("k", kir.U(0), kir.U(8), kir.U(1), func(k kir.Expr) {
		idx := kir.Add(tid, kir.Mul(k, kir.U(fftThreads)))
		b.Store(outRe, kir.Add(base, idx), b.Load(lre, k))
		b.Store(outIm, kir.Add(base, idx), b.Load(lim, k))
	})
	return b.MustBuild()
}

// fftRef runs the same Stockham schedule on the host in float64.
func fftRef(re, im []float32) (outRe, outIm []float32) {
	n := len(re)
	xr := make([]float64, n)
	xi := make([]float64, n)
	yr := make([]float64, n)
	yi := make([]float64, n)
	for i := range re {
		xr[i], xi[i] = float64(re[i]), float64(im[i])
	}
	for s := 0; m(s) < uint32(n); s++ {
		mm := int(m(s))
		for idx := 0; idx < n/2; idx++ {
			jm := idx &^ (mm - 1)
			k := idx & (mm - 1)
			ang := -math.Pi * float64(jm) / float64(n/2)
			wr, wi := math.Cos(ang), math.Sin(ang)
			c0r, c0i := xr[idx], xi[idx]
			c1r, c1i := xr[idx+n/2], xi[idx+n/2]
			o1 := k + 2*jm
			yr[o1], yi[o1] = c0r+c1r, c0i+c1i
			dr, di := c0r-c1r, c0i-c1i
			yr[o1+mm] = dr*wr - di*wi
			yi[o1+mm] = dr*wi + di*wr
		}
		xr, yr = yr, xr
		xi, yi = yi, xi
	}
	outRe = make([]float32, n)
	outIm = make([]float32, n)
	for i := range outRe {
		outRe[i], outIm[i] = float32(xr[i]), float32(xi[i])
	}
	return outRe, outIm
}

func m(s int) uint32 { return 1 << uint(s) }

// runFFT measures batched-FFT throughput in GFlops/sec using the standard
// 5·N·log2(N) operation count (Table II).
func runFFT(d Driver, cfg Config) *Result {
	batch := cfg.scale(256)
	re, im := workload.SignalBatch(batch, fftN, 17)

	k := FFTKernel()
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, err)
	}
	inRe, err := allocWriteF(d, re)
	if err != nil {
		return abort(d, err)
	}
	inIm, err := allocWriteF(d, im)
	if err != nil {
		return abort(d, err)
	}
	outRe, err := allocZero(d, batch*fftN)
	if err != nil {
		return abort(d, err)
	}
	outIm, err := allocZero(d, batch*fftN)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	if err := d.Launch(mod, "forward", sim.Dim3{X: batch, Y: 1}, sim.Dim3{X: fftThreads, Y: 1},
		B(inRe), B(inIm), B(outRe), B(outIm)); err != nil {
		return abort(d, err)
	}

	gotRe, err := readF32(d, outRe, batch*fftN)
	if err != nil {
		return abort(d, err)
	}
	gotIm, err := readF32(d, outIm, batch*fftN)
	if err != nil {
		return abort(d, err)
	}
	correct := true
	for bi := 0; bi < batch && correct; bi++ {
		wr, wi := fftRef(re[bi*fftN:(bi+1)*fftN], im[bi*fftN:(bi+1)*fftN])
		for i := 0; i < fftN; i++ {
			if !f32eq(gotRe[bi*fftN+i], wr[i], 2e-2) || !f32eq(gotIm[bi*fftN+i], wi[i], 2e-2) {
				correct = false
				break
			}
		}
	}

	flops := 5 * float64(batch*fftN) * fftStages
	return result(d, flops, correct)
}
