package bench

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

const tileDim = 16

// TranPKernel builds the tiled matrix transpose. The shared-memory tile is
// padded to 17 columns to avoid bank conflicts on the transposed read.
// naive skips the tile entirely (the variant that is faster on the CPU
// device, Section V: explicit local memory is pure overhead when all
// global memory is implicitly cached).
func TranPKernel(naive bool) *kir.Kernel {
	b := kir.NewKernel("transpose")
	in := b.GlobalBuffer("in", kir.F32)
	out := b.GlobalBuffer("out", kir.F32)
	n := b.ScalarParam("n", kir.U32)

	if naive {
		x := b.Declare("x", b.GlobalIDX())
		y := b.Declare("y", b.GlobalIDY())
		b.Store(out, kir.Add(kir.Mul(x, n), y), b.Load(in, kir.Add(kir.Mul(y, n), x)))
		return b.MustBuild()
	}

	tile := b.SharedArray("tile", kir.F32, tileDim*(tileDim+1))
	tx := kir.Bi(kir.TidX)
	ty := kir.Bi(kir.TidY)
	x := b.Declare("x", b.GlobalIDX())
	y := b.Declare("y", b.GlobalIDY())
	b.Store(tile, kir.Add(kir.Mul(ty, kir.U(tileDim+1)), tx), b.Load(in, kir.Add(kir.Mul(y, n), x)))
	b.Barrier()
	xo := b.Declare("xo", kir.Add(kir.Mul(kir.Bi(kir.CtaidY), kir.U(tileDim)), tx))
	yo := b.Declare("yo", kir.Add(kir.Mul(kir.Bi(kir.CtaidX), kir.U(tileDim)), ty))
	b.Store(out, kir.Add(kir.Mul(yo, n), xo), b.Load(tile, kir.Add(kir.Mul(tx, kir.U(tileDim+1)), ty)))
	return b.MustBuild()
}

// runTranP measures matrix transposition bandwidth in GB/sec (Table II).
func runTranP(d Driver, cfg Config) *Result {
	n := cfg.scale(1024)
	if n < tileDim {
		n = tileDim
	}
	n = (n / tileDim) * tileDim

	in := workload.NewRNG(7).Floats(n*n, 0, 1)
	k := TranPKernel(cfg.NaiveTranspose)
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, err)
	}
	inBuf, err := allocWriteF(d, in)
	if err != nil {
		return abort(d, err)
	}
	outBuf, err := allocZero(d, n*n)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	block := sim.Dim3{X: tileDim, Y: tileDim}
	grid := sim.Dim3{X: n / tileDim, Y: n / tileDim}
	if err := d.Launch(mod, "transpose", grid, block, B(inBuf), B(outBuf), V(uint32(n))); err != nil {
		return abort(d, err)
	}

	got, err := readF32(d, outBuf, n*n)
	if err != nil {
		return abort(d, err)
	}
	correct := true
	for y := 0; y < n && correct; y++ {
		for x := 0; x < n; x++ {
			if got[x*n+y] != in[y*n+x] {
				correct = false
				break
			}
		}
	}
	return result(d, float64(2*n*n)*4, correct)
}
