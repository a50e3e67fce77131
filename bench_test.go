// Package gpucmp's top-level benchmarks regenerate every table and figure
// of the paper under `go test -bench`. Each benchmark family maps to one
// artifact of the evaluation section (see DESIGN.md §3) and reports the
// paper's metric via testing.B custom metrics:
//
//	BenchmarkFig1_Bandwidth  — achieved peak GB/s per toolchain (Fig. 1)
//	BenchmarkFig2_Flops      — achieved peak GFlops/s per toolchain (Fig. 2)
//	BenchmarkFig3_PR         — PerformanceRatio per benchmark/device (Fig. 3)
//	BenchmarkFig4_Texture    — texture-memory impact on the CUDA MD/SPMV (Fig. 4)
//	BenchmarkFig5_TexturePR  — PR after removing texture memory (Fig. 5)
//	BenchmarkFig6_Unroll     — pragma-unroll impact on the CUDA FDTD (Fig. 6)
//	BenchmarkFig7_UnrollPR   — PR under matching unroll placements (Fig. 7)
//	BenchmarkFig8_Constant   — constant-memory impact on Sobel (Fig. 8)
//	BenchmarkTable5_PTX      — front-end instruction census of the FFT (Table V)
//	BenchmarkTable6_Port     — OpenCL throughput on the non-NVIDIA devices (Table VI)
package gpucmp

import (
	"fmt"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/core"
	"gpucmp/internal/ptx"
)

// benchScale divides problem sizes so a full -bench=. sweep stays tractable.
const benchScale = 2

// figureDevices returns the devices the figure table runs id on.
func figureDevices(id string) []*arch.Device {
	f, _ := core.FigureByID(id)
	return f.Devices()
}

func BenchmarkFig1_Bandwidth(b *testing.B) {
	for _, dev := range figureDevices("fig1") {
		b.Run(dev.Microarch.String(), func(b *testing.B) {
			var r core.PeakResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = core.PeakBandwidth(core.Direct, dev, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.CUDA, "cuda-GB/s")
			b.ReportMetric(r.OpenCL, "opencl-GB/s")
			b.ReportMetric(r.OpenCL/r.CUDA, "opencl/cuda")
			b.ReportMetric(100*r.FractionOpenCL(), "opencl-%TP")
		})
	}
}

func BenchmarkFig2_Flops(b *testing.B) {
	for _, dev := range figureDevices("fig2") {
		b.Run(dev.Microarch.String(), func(b *testing.B) {
			var r core.PeakResult
			var err error
			for i := 0; i < b.N; i++ {
				r, err = core.PeakFlops(core.Direct, dev, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.CUDA, "cuda-GFlops/s")
			b.ReportMetric(r.OpenCL, "opencl-GFlops/s")
			b.ReportMetric(100*r.FractionOpenCL(), "opencl-%TP")
		})
	}
}

func BenchmarkFig3_PR(b *testing.B) {
	for _, dev := range figureDevices("fig3") {
		for _, spec := range core.Fig3Benchmarks() {
			spec := spec
			dev := dev
			b.Run(fmt.Sprintf("%s/%s", dev.Microarch, spec.Name), func(b *testing.B) {
				var c *core.Comparison
				var err error
				for i := 0; i < b.N; i++ {
					c, err = core.CompareNative(core.Direct, dev, spec, benchScale)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(c.PR, "PR")
				b.ReportMetric(c.CUDA.Value, "cuda-"+spec.Metric)
				b.ReportMetric(c.OpenCL.Value, "opencl-"+spec.Metric)
			})
		}
	}
}

func BenchmarkFig4_Texture(b *testing.B) {
	for _, dev := range figureDevices("fig4") {
		dev := dev
		b.Run(dev.Microarch.String(), func(b *testing.B) {
			var impacts []core.TextureImpact
			var err error
			for i := 0; i < b.N; i++ {
				impacts, err = core.TextureStudy(core.Direct, dev, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, im := range impacts {
				b.ReportMetric(100*im.Ratio(), im.Benchmark+"-notex-%")
			}
		})
	}
}

func BenchmarkFig5_TexturePR(b *testing.B) {
	for _, dev := range figureDevices("fig5") {
		dev := dev
		b.Run(dev.Microarch.String(), func(b *testing.B) {
			var rows []*core.Comparison
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = core.TexturePRStudy(core.Direct, dev, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range rows {
				b.ReportMetric(c.PR, c.Benchmark+"-PR")
			}
		})
	}
}

func BenchmarkFig6_Unroll(b *testing.B) {
	for _, dev := range figureDevices("fig6") {
		dev := dev
		b.Run(dev.Microarch.String(), func(b *testing.B) {
			var u core.UnrollImpact
			var err error
			for i := 0; i < b.N; i++ {
				u, err = core.UnrollStudyCUDA(core.Direct, dev, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(u.With, "with-MPoints/s")
			b.ReportMetric(u.WithoutA, "without-MPoints/s")
			b.ReportMetric(100*u.Ratio(), "without-%")
		})
	}
}

func BenchmarkFig7_UnrollPR(b *testing.B) {
	for _, dev := range figureDevices("fig7") {
		dev := dev
		b.Run(dev.Microarch.String(), func(b *testing.B) {
			var combos []core.UnrollCombo
			var err error
			for i := 0; i < b.N; i++ {
				combos, err = core.UnrollCombos(core.Direct, dev, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range combos {
				b.ReportMetric(c.PR, c.Label+"-PR")
			}
		})
	}
}

func BenchmarkFig8_Constant(b *testing.B) {
	for _, dev := range figureDevices("fig8") {
		dev := dev
		b.Run(dev.Microarch.String(), func(b *testing.B) {
			var c core.ConstantImpact
			var err error
			for i := 0; i < b.N; i++ {
				c, err = core.ConstantStudy(core.Direct, dev, benchScale)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(c.Speedup(), "const-speedup")
		})
	}
}

func BenchmarkTable5_PTX(b *testing.B) {
	var cu, cl *ptx.Stats
	var err error
	for i := 0; i < b.N; i++ {
		cu, cl, _, err = core.PTXStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cu.Total), "cuda-instrs")
	b.ReportMetric(float64(cl.Total), "opencl-instrs")
	b.ReportMetric(float64(cu.Get(ptx.OpMov, ptx.SpaceNone)), "cuda-mov")
	b.ReportMetric(float64(cl.Class(ptx.ClassLogicShift)), "opencl-logicshift")
	b.ReportMetric(float64(cl.Class(ptx.ClassFlowControl)), "opencl-flowctl")
}

func BenchmarkTable6_Port(b *testing.B) {
	for _, dev := range figureDevices("tableVI") {
		for _, spec := range core.Fig3Benchmarks() {
			dev := dev
			spec := spec
			b.Run(fmt.Sprintf("%s/%s", dev.Microarch, spec.Name), func(b *testing.B) {
				var res *bench.Result
				for i := 0; i < b.N; i++ {
					d, err := bench.NewDriver("opencl", dev)
					if err != nil {
						b.Fatal(err)
					}
					cfg := bench.NativeConfig("opencl")
					cfg.Scale = benchScale * 2
					res, err = spec.Run(d, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				switch res.Status() {
				case "OK":
					b.ReportMetric(res.Value, spec.Metric)
				case "FL":
					b.ReportMetric(-1, "FL")
				case "ABT":
					b.ReportMetric(-2, "ABT")
				}
			})
		}
	}
}
