package bench

import "gpucmp/internal/workload"

const mxmTile = 16

// mxmRef computes the reference product with the same tile-ordered float
// accumulation as the kernel (k-major within the row).
func mxmRef(a, bm []float32, n int) []float32 {
	c := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * bm[k*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// RunMxM measures dense matrix multiplication in GFlops/sec (Table II).
// The kernel is the pattern lowering of a MatMulProg; the canonical
// schedule is the shared-memory tiled SGEMM with 16x16 tiles.
func RunMxM(d Driver, cfg Config) (*Result, error) {
	const metric = "GFlops/sec"
	shape, _ := PatternShape("MxM", cfg)
	n := shape.N
	rng := workload.NewRNG(41)
	av := rng.Floats(n*n, -1, 1)
	bv := rng.Floats(n*n, -1, 1)

	l, bufs, err := runLowered(d, "MxM", cfg, map[string][]uint32{"A": F32Words(av), "B": F32Words(bv)})
	if err != nil {
		return abort(d, "MxM", metric, err), nil
	}
	kernelSecs := d.KernelTime()

	got, err := readF32(d, bufs[l.Out], n*n)
	if err != nil {
		return abort(d, "MxM", metric, err), nil
	}
	want := mxmRef(av, bv, n)
	correct := true
	for i := range want {
		if !f32eq(got[i], want[i], 2e-2) {
			correct = false
			break
		}
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	return result(d, "MxM", metric, flops/kernelSecs/1e9, correct), nil
}
