package bench_test

import (
	"fmt"
	"math"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/core"
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
)

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// saxpy builds y = alpha*x + y, written once in the kernel IR. Both
// toolchains compile this same source with their own front-end
// personalities — the setup of the paper's comparisons.
func saxpy() *kir.Kernel {
	b := kir.NewKernel("saxpy")
	x := b.GlobalBuffer("x", kir.F32)
	y := b.GlobalBuffer("y", kir.F32)
	alpha := b.ScalarParam("alpha", kir.F32)
	n := b.ScalarParam("n", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.If(kir.Lt(gid, n), func() {
		b.Store(y, gid, kir.Add(kir.Mul(alpha, b.Load(x, gid)), b.Load(y, gid)))
	})
	return b.MustBuild()
}

// The quickstart: one kernel through both toolchains on a simulated
// GTX480, verified against the host and compared with the paper's
// PerformanceRatio (Eq. 1).
func Example_saxpy() {
	const n, block = 1 << 20, 256
	const alpha = float32(2.5)
	xs, ys := make([]float32, n), make([]float32, n)
	for i := range xs {
		xs[i], ys[i] = float32(i%100), 1
	}
	a := arch.GTX480()
	secs := map[string]float64{}
	for _, tc := range bench.Toolchains(a) {
		d, err := tc.Open(a)
		check(err)
		m, err := d.Build(saxpy())
		check(err)
		x, err := d.Alloc(4 * n)
		check(err)
		y, err := d.Alloc(4 * n)
		check(err)
		check(d.Write(x, bench.F32Words(xs)))
		check(d.Write(y, bench.F32Words(ys)))

		d.ResetTimer()
		check(d.Launch(m, "saxpy", sim.Dim3{X: n / block, Y: 1}, sim.Dim3{X: block, Y: 1},
			bench.B(x), bench.B(y), bench.V(math.Float32bits(alpha)), bench.V(n)))
		secs[tc.Name] = d.KernelTime()

		out := make([]uint32, n)
		check(d.Read(out, y))
		ok := 0
		for i, w := range out {
			if math.Float32frombits(w) == float32(alpha*xs[i])+ys[i] {
				ok++
			}
		}
		fmt.Printf("%-6s %d of %d correct, kernel %.2f us\n", tc.Name, ok, n, secs[tc.Name]*1e6)
	}
	pr := core.PR(secs["opencl"], secs["cuda"], true)
	fmt.Printf("PerformanceRatio %.3f, similar: %v\n", pr, core.Similar(pr))
	// Output:
	// cuda   1048576 of 1048576 correct, kernel 59.21 us
	// opencl 1048576 of 1048576 correct, kernel 70.15 us
	// PerformanceRatio 0.844, similar: false
}

// Section V in miniature: one reduction, written once, runs unchanged
// under OpenCL on all five devices, while CUDA reaches the NVIDIA parts
// only.
func Example_portability() {
	reduce, err := bench.SpecByName("Reduce")
	check(err)
	for _, a := range arch.All() {
		d, err := bench.OpenCL().Open(a)
		check(err)
		res, err := reduce.Run(d, bench.Config{Scale: 8})
		check(err)
		var names []string
		for _, tc := range bench.Toolchains(a) {
			names = append(names, tc.Name)
		}
		fmt.Printf("%-22s %-11s %s %8.3f %s\n", a.Name, strings.Join(names, ","),
			res.Status(), res.Value, res.Metric)
	}
	// Output:
	// GeForce GTX480         cuda,opencl OK    6.381 GB/sec
	// GeForce GTX280         cuda,opencl OK    5.488 GB/sec
	// Radeon HD5870          opencl      OK    2.645 GB/sec
	// Intel Core i7 920      opencl      OK    0.169 GB/sec
	// Cell Broadband Engine  opencl      OK    0.066 GB/sec
}

// The Fig. 8 mechanism: Sobel's filter in constant versus global memory.
// The GT200 has no general-purpose cache, so every global filter read is
// a DRAM transaction the constant cache would absorb; the Fermi L1 absorbs
// them anyway.
func Example_sobelFilterPlacement() {
	sobel, err := bench.SpecByName("Sobel")
	check(err)
	for _, a := range []*arch.Device{arch.GTX280(), arch.GTX480()} {
		for _, constant := range []bool{true, false} {
			d, err := bench.NewDriver("cuda", a)
			check(err)
			res, err := sobel.Run(d, bench.Config{Scale: 8, UseConstant: constant})
			check(err)
			var dram int64
			for _, tr := range res.Traces {
				dram += tr.Mem.DRAMBytes(a.GlobalSegmentSize)
			}
			fmt.Printf("%-15s constant=%-5v %s %7.2f us %8d DRAM bytes\n",
				a.Name, constant, res.Status(), res.KernelSeconds*1e6, dram)
		}
	}
	// Output:
	// GeForce GTX280  constant=true  OK   15.50 us   985728 DRAM bytes
	// GeForce GTX280  constant=false OK   18.77 us  1278720 DRAM bytes
	// GeForce GTX480  constant=true  OK    8.34 us   385408 DRAM bytes
	// GeForce GTX480  constant=false OK    8.36 us   385408 DRAM bytes
}

// The Section V SPMV study: the warp-per-row CSR-vector kernel, a GPU
// optimisation, costs the CPU device an order of magnitude, where a
// 32-wide "warp" mostly idles.
func Example_spmvOnCPU() {
	spmv, err := bench.SpecByName("SPMV")
	check(err)
	for _, a := range []*arch.Device{arch.GTX480(), arch.Intel920()} {
		for _, vector := range []bool{false, true} {
			d, err := bench.NewDriver("opencl", a)
			check(err)
			res, err := spmv.Run(d, bench.Config{Scale: 8, VectorSPMV: vector})
			check(err)
			fmt.Printf("%-18s vector=%-5v %s %8.4f %s\n", a.Name, vector, res.Status(), res.Value, res.Metric)
		}
	}
	// Output:
	// GeForce GTX480     vector=false OK   2.8815 GFlops/sec
	// GeForce GTX480     vector=true  OK   1.1186 GFlops/sec
	// Intel Core i7 920  vector=false OK   0.7887 GFlops/sec
	// Intel Core i7 920  vector=true  OK   0.0725 GFlops/sec
}
