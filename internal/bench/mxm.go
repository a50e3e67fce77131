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

// mxmData is MxM's host side at one matrix order.
type mxmData struct {
	a, b []uint32 // the operands, in words
	want []float32
}

// mxmHost builds the two n x n operands and their reference product.
func mxmHost(n int) *mxmData {
	rng := workload.NewRNG(41)
	av := rng.Floats(n*n, -1, 1)
	bv := rng.Floats(n*n, -1, 1)
	return &mxmData{a: F32Words(av), b: F32Words(bv), want: mxmRef(av, bv, n)}
}

// runMxM measures dense matrix multiplication in GFlops/sec (Table II).
// The kernel is the pattern lowering of a MatMulProg; the canonical
// schedule is the shared-memory tiled SGEMM with 16x16 tiles.
func runMxM(d Driver, cfg Config) *Result {
	shape, _ := PatternShape("MxM", cfg)
	n := shape.N
	h := hostData("MxM", n, mxmHost)

	l, bufs, err := runLowered(d, "MxM", cfg, map[string][]uint32{"A": h.a, "B": h.b})
	if err != nil {
		return abort(d, err)
	}

	got, err := readWords(d, bufs[l.Out], n*n)
	if err != nil {
		return abort(d, err)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	return result(d, flops, closeF32(got, h.want, 2e-2))
}
