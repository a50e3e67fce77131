package bench

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// SPMVScalarKernel builds the CSR-scalar kernel: one thread per row.
// useTexture routes the x-vector gather through the texture cache (the
// CUDA implementation's native choice, Fig. 4).
func SPMVScalarKernel(useTexture bool) *kir.Kernel {
	b := kir.NewKernel("spmv_csr_scalar")
	vals := b.GlobalBuffer("vals", kir.F32)
	cols := b.GlobalBuffer("cols", kir.U32)
	rowPtr := b.GlobalBuffer("rowPtr", kir.U32)
	var x kir.Buf
	if useTexture {
		x = b.TexBuffer("x", kir.F32)
	} else {
		x = b.GlobalBuffer("x", kir.F32)
	}
	y := b.GlobalBuffer("y", kir.F32)
	rows := b.ScalarParam("rows", kir.U32)

	r := b.Declare("r", b.GlobalIDX())
	b.If(kir.Lt(r, rows), func() {
		sum := b.Declare("sum", kir.F(0))
		start := b.Declare("start", b.Load(rowPtr, r))
		end := b.Declare("end", b.Load(rowPtr, kir.Add(r, kir.U(1))))
		b.For("jj", start, end, kir.U(1), func(jj kir.Expr) {
			b.Assign(sum, kir.Add(sum, kir.Mul(b.Load(vals, jj), b.Load(x, b.Load(cols, jj)))))
		})
		b.Store(y, r, sum)
	})
	return b.MustBuild()
}

// SPMVVectorKernel builds the CSR-vector kernel: one 32-wide "warp" of
// work-items cooperates on each row, with a warp-synchronous shared-memory
// reduction. This is the warp-oriented optimisation Section V shows
// collapsing on the CPU device, where most of the 32 lanes idle.
func SPMVVectorKernel(useTexture bool) *kir.Kernel {
	b := kir.NewKernel("spmv_csr_vector")
	vals := b.GlobalBuffer("vals", kir.F32)
	cols := b.GlobalBuffer("cols", kir.U32)
	rowPtr := b.GlobalBuffer("rowPtr", kir.U32)
	var x kir.Buf
	if useTexture {
		x = b.TexBuffer("x", kir.F32)
	} else {
		x = b.GlobalBuffer("x", kir.F32)
	}
	y := b.GlobalBuffer("y", kir.F32)
	rows := b.ScalarParam("rows", kir.U32)
	part := b.SharedArray("part", kir.F32, 128)
	b.AssumeWarpWidth(32)

	tid := kir.Bi(kir.TidX)
	gid := b.Declare("gid", b.GlobalIDX())
	row := b.Declare("row", kir.Shr(gid, kir.U(5))) // gid / 32
	lane := b.Declare("lane", kir.And(gid, kir.U(31)))
	b.If(kir.Lt(row, rows), func() {
		sum := b.Declare("sum", kir.F(0))
		start := b.Declare("start", kir.Add(b.Load(rowPtr, row), lane))
		end := b.Declare("end", b.Load(rowPtr, kir.Add(row, kir.U(1))))
		b.For("jj", start, end, kir.U(32), func(jj kir.Expr) {
			b.Assign(sum, kir.Add(sum, kir.Mul(b.Load(vals, jj), b.Load(x, b.Load(cols, jj)))))
		})
		b.Store(part, tid, sum)
		// Warp-synchronous tree reduction over the 32 lanes (no barriers:
		// correct only within one hardware warp).
		for stride := uint32(16); stride >= 1; stride /= 2 {
			b.If(kir.Lt(lane, kir.U(stride)), func() {
				b.Store(part, tid, kir.Add(b.Load(part, tid), b.Load(part, kir.Add(tid, kir.U(stride)))))
			})
		}
		b.If(kir.Eq(lane, kir.U(0)), func() {
			b.Store(y, row, b.Load(part, tid))
		})
	})
	return b.MustBuild()
}

// spmvRef computes the reference product.
func spmvRef(m *workload.CSR, x []float32) []float32 {
	y := make([]float32, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var sum float32
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			sum += m.Values[jj] * x[m.ColIdx[jj]]
		}
		y[r] = sum
	}
	return y
}

// spmvData is SPMV's host side at one row count.
type spmvData struct {
	vals, cols, rowPtr, x []uint32 // the CSR matrix and the vector, in words
	want                  []float32
	nnz                   int
}

// spmvHost builds the matrix, the vector and their reference product.
func spmvHost(rows int) *spmvData {
	mtx := workload.RandomCSR(rows, rows, 8, 29)
	x := workload.NewRNG(31).Floats(rows, 0, 1)
	return &spmvData{vals: F32Words(mtx.Values), cols: mtx.ColIdx, rowPtr: mtx.RowPtr, x: F32Words(x),
		want: spmvRef(mtx, x), nnz: mtx.NNZ()}
}

// runSPMV measures sparse matrix-vector throughput in GFlops/sec: 2 flops
// per stored element (Table II).
func runSPMV(d Driver, cfg Config) *Result {
	rows := cfg.scale(16384)
	h := hostData("SPMV", rows, spmvHost)

	var k *kir.Kernel
	if cfg.VectorSPMV {
		k = SPMVVectorKernel(cfg.UseTexture)
	} else {
		k = SPMVScalarKernel(cfg.UseTexture)
	}
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, err)
	}
	vb, err := allocWrite(d, h.vals)
	if err != nil {
		return abort(d, err)
	}
	cb, err := allocWrite(d, h.cols)
	if err != nil {
		return abort(d, err)
	}
	rb, err := allocWrite(d, h.rowPtr)
	if err != nil {
		return abort(d, err)
	}
	xb, err := allocWrite(d, h.x)
	if err != nil {
		return abort(d, err)
	}
	yb, err := allocZero(d, rows)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	block := 128
	threads := rows
	kernelName := "spmv_csr_scalar"
	if cfg.VectorSPMV {
		threads = rows * 32
		kernelName = "spmv_csr_vector"
	}
	grid := sim.Dim3{X: (threads + block - 1) / block, Y: 1}
	if err := d.Launch(mod, kernelName, grid, sim.Dim3{X: block, Y: 1},
		B(vb), B(cb), B(rb), B(xb), B(yb), V(uint32(rows))); err != nil {
		return abort(d, err)
	}

	got, err := readWords(d, yb, rows)
	if err != nil {
		return abort(d, err)
	}
	return result(d, 2*float64(h.nnz), closeF32(got, h.want, 1e-3))
}
