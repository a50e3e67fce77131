package bench_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/core"
	"gpucmp/internal/golden"
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

// TestExamplePrices pins what the examples below price, in
// testdata/examples.golden: kernel times, rates and the PerformanceRatio.
// Each example is a study that writes the relation it illustrates (status,
// which toolchains reach a device, which configuration wins, DRAM bytes)
// to relation and its priced lines to priced, so a model change that moves
// a price is re-recorded by -update, not in an Output block.
func TestExamplePrices(t *testing.T) {
	var buf bytes.Buffer
	for _, ex := range []struct {
		name  string
		study func(relation, priced io.Writer)
	}{
		{"saxpy", saxpyStudy},
		{"portability", portabilityStudy},
		{"sobelFilterPlacement", sobelFilterPlacementStudy},
		{"spmvOnCPU", spmvOnCPUStudy},
	} {
		fmt.Fprintf(&buf, "== %s\n", ex.name)
		ex.study(io.Discard, &buf)
	}
	golden.Check(t, "testdata/examples.golden", buf.Bytes())
}

// The quickstart: one kernel through both toolchains on a simulated
// GTX480, verified against the host and compared with the paper's
// PerformanceRatio (Eq. 1).
func Example_saxpy() {
	saxpyStudy(os.Stdout, io.Discard)
	// Output:
	// cuda   1048576 of 1048576 correct
	// opencl 1048576 of 1048576 correct
	// OpenCL faster: false, similar: false
}

func saxpyStudy(relation, priced io.Writer) {
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
		fmt.Fprintf(relation, "%-6s %d of %d correct\n", tc.Name, ok, n)
		fmt.Fprintf(priced, "%-6s %d of %d correct, kernel %.2f us\n", tc.Name, ok, n, secs[tc.Name]*1e6)
	}
	pr := core.PR(secs["opencl"], secs["cuda"], true)
	fmt.Fprintf(relation, "OpenCL faster: %v, similar: %v\n", pr > 1, core.Similar(pr))
	fmt.Fprintf(priced, "PerformanceRatio %.3f, similar: %v\n", pr, core.Similar(pr))
}

// Section V in miniature: one reduction, written once, runs unchanged
// under OpenCL on all five devices, while CUDA reaches the NVIDIA parts
// only.
func Example_portability() {
	portabilityStudy(os.Stdout, io.Discard)
	// Output:
	// GeForce GTX480         cuda,opencl OK
	// GeForce GTX280         cuda,opencl OK
	// Radeon HD5870          opencl      OK
	// Intel Core i7 920      opencl      OK
	// Cell Broadband Engine  opencl      OK
}

func portabilityStudy(relation, priced io.Writer) {
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
		row := fmt.Sprintf("%-22s %-11s %s", a.Name, strings.Join(names, ","), res.Status())
		fmt.Fprintln(relation, strings.TrimRight(row, " "))
		fmt.Fprintf(priced, "%s %8.3f %s\n", row, res.Value, res.Metric)
	}
}

// The Fig. 8 mechanism: Sobel's filter in constant versus global memory.
// The GT200 has no general-purpose cache, so every global filter read is
// a DRAM transaction the constant cache would absorb; the Fermi L1 absorbs
// them anyway.
func Example_sobelFilterPlacement() {
	sobelFilterPlacementStudy(os.Stdout, io.Discard)
	// Output:
	// GeForce GTX280  constant=true  OK   985728 DRAM bytes
	// GeForce GTX280  constant=false OK  1278720 DRAM bytes
	// GeForce GTX480  constant=true  OK   385408 DRAM bytes
	// GeForce GTX480  constant=false OK   385408 DRAM bytes
}

func sobelFilterPlacementStudy(relation, priced io.Writer) {
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
			fmt.Fprintf(relation, "%-15s constant=%-5v %s %8d DRAM bytes\n", a.Name, constant, res.Status(), dram)
			fmt.Fprintf(priced, "%-15s constant=%-5v %s %7.2f us %8d DRAM bytes\n",
				a.Name, constant, res.Status(), res.KernelSeconds*1e6, dram)
		}
	}
}

// The Section V SPMV study: the warp-per-row CSR-vector kernel, a GPU
// optimisation, costs the CPU device an order of magnitude, where a
// 32-wide "warp" mostly idles.
func Example_spmvOnCPU() {
	spmvOnCPUStudy(os.Stdout, io.Discard)
	// Output:
	// GeForce GTX480     vector=false OK
	// GeForce GTX480     vector=true  OK
	// GeForce GTX480     scalar wins by 10x or more: false
	// Intel Core i7 920  vector=false OK
	// Intel Core i7 920  vector=true  OK
	// Intel Core i7 920  scalar wins by 10x or more: true
}

func spmvOnCPUStudy(relation, priced io.Writer) {
	spmv, err := bench.SpecByName("SPMV")
	check(err)
	for _, a := range []*arch.Device{arch.GTX480(), arch.Intel920()} {
		var value [2]float64
		for i, vector := range []bool{false, true} {
			d, err := bench.NewDriver("opencl", a)
			check(err)
			res, err := spmv.Run(d, bench.Config{Scale: 8, VectorSPMV: vector})
			check(err)
			value[i] = res.Value
			fmt.Fprintf(relation, "%-18s vector=%-5v %s\n", a.Name, vector, res.Status())
			fmt.Fprintf(priced, "%-18s vector=%-5v %s %8.4f %s\n", a.Name, vector, res.Status(), res.Value, res.Metric)
		}
		fmt.Fprintf(relation, "%-18s scalar wins by 10x or more: %v\n", a.Name, value[0] >= 10*value[1])
	}
}
