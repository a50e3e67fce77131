package gpucmp

// Ablation benchmarks for the compiler-personality design choices that
// DESIGN.md calls out: each benchmark takes the OpenCL front-end, toggles
// exactly one personality feature toward its NVOPENCC setting, and reports
// how the FFT forward kernel's simulated execution time moves. This
// quantifies how much of the paper's FFT front-end gap each compiler
// difference is responsible for in the model.

import (
	"math"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// runFFTWith compiles the FFT forward kernel with the given personality and
// returns its simulated kernel seconds on a GTX480.
func runFFTWith(b *testing.B, p compiler.Personality) float64 {
	b.Helper()
	const batch = 128
	k, err := compiler.Compile(bench.FFTKernel(), p)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := sim.NewDevice(arch.GTX480())
	if err != nil {
		b.Fatal(err)
	}
	re, im := workload.SignalBatch(batch, 512, 17)
	upload := func(f []float32) uint32 {
		words := make([]uint32, len(f))
		for i := range f {
			words[i] = f32bits(f[i])
		}
		addr, err := dev.Global.Alloc(uint32(4 * len(words)))
		if err != nil {
			b.Fatal(err)
		}
		if err := dev.Global.WriteWords(addr, words); err != nil {
			b.Fatal(err)
		}
		return addr
	}
	inRe, inIm := upload(re), upload(im)
	outRe, _ := dev.Global.Alloc(4 * batch * 512)
	outIm, _ := dev.Global.Alloc(4 * batch * 512)
	tr, err := dev.Launch(k, sim.Dim3{X: batch, Y: 1}, sim.Dim3{X: 64, Y: 1},
		[]uint32{inRe, inIm, outRe, outIm})
	if err != nil {
		b.Fatal(err)
	}
	tc := bench.Toolchain{Costs: perfmodel.ToolchainFor(p.Name)}
	return bench.Record{Traces: []*sim.Trace{tr}}.Price(dev.Arch, tc).Kernel
}

// ablate runs base vs. modified and reports the speed ratio.
func ablate(b *testing.B, name string, mutate func(*compiler.Personality)) {
	b.Run(name, func(b *testing.B) {
		var base, mod float64
		for i := 0; i < b.N; i++ {
			p := compiler.OpenCL()
			base = runFFTWith(b, p)
			mutate(&p)
			mod = runFFTWith(b, p)
		}
		b.ReportMetric(base*1e6, "base-us")
		b.ReportMetric(mod*1e6, "ablated-us")
		b.ReportMetric(base/mod, "speedup")
	})
}

// BenchmarkAblation_FFTFrontEnd toggles one OpenCL front-end limitation at
// a time toward the NVOPENCC behaviour.
func BenchmarkAblation_FFTFrontEnd(b *testing.B) {
	ablate(b, "wide-cse-window", func(p *compiler.Personality) {
		p.MaxCSERegs = compiler.CUDA().MaxCSERegs
	})
	ablate(b, "aggressive-auto-unroll", func(p *compiler.Personality) {
		p.AutoUnrollTrips = compiler.CUDA().AutoUnrollTrips
		p.AutoUnrollMaxNodes = compiler.CUDA().AutoUnrollMaxNodes
	})
	ablate(b, "no-strength-reduction", func(p *compiler.Personality) {
		p.StrengthReduce = false
	})
	ablate(b, "guard-predication", func(p *compiler.Personality) {
		p.SelpPureIf = false
		p.GuardSmallIf = true
		p.MaxGuardInstrs = compiler.CUDA().MaxGuardInstrs
	})
	b.Run("full-nvopencc", func(b *testing.B) {
		var base, cudaT float64
		for i := 0; i < b.N; i++ {
			base = runFFTWith(b, compiler.OpenCL())
			cudaT = runFFTWith(b, compiler.CUDA())
		}
		b.ReportMetric(base*1e6, "opencl-us")
		b.ReportMetric(cudaT*1e6, "cuda-us")
		b.ReportMetric(base/cudaT, "gap")
	})
}

// BenchmarkAblation_LaunchOverhead isolates the runtime-launch component of
// the BFS gap by re-pricing the same traces under both toolchains' launch
// costs.
func BenchmarkAblation_LaunchOverhead(b *testing.B) {
	d, err := bench.NewDriver("opencl", arch.GTX280())
	if err != nil {
		b.Fatal(err)
	}
	bfs, err := bench.SpecByName("BFS")
	if err != nil {
		b.Fatal(err)
	}
	var res *bench.Result
	for i := 0; i < b.N; i++ {
		res, err = bfs.Run(d, bench.Config{Scale: 4})
		if err != nil || res.Err != nil {
			b.Fatal(err, res.Err)
		}
		d.ResetTimer()
	}
	cu := perfmodel.CUDAToolchain()
	cl := perfmodel.OpenCLToolchain()
	launches := float64(len(res.Traces))
	diff := launches * (cl.LaunchOverhead - cu.LaunchOverhead)
	b.ReportMetric(launches, "launches")
	b.ReportMetric(diff*1e6, "launch-gap-us")
	b.ReportMetric(res.KernelSeconds*1e6, "total-us")
	b.ReportMetric(diff/res.KernelSeconds, "launch-share-of-total")
}

func f32bits(f float32) uint32 { return math.Float32bits(f) }
