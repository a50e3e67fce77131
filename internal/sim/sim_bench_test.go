package sim

// Benchmarks of the simulator itself: how many warp-instructions per second
// the interpreter retires. These guard against performance regressions in
// the hot interpretation loop (fetch/dispatch/lane loops).

import (
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
)

func simBenchKernel() *kir.Kernel {
	b := kir.NewKernel("spin")
	out := b.GlobalBuffer("out", kir.F32)
	gid := b.Declare("gid", b.GlobalIDX())
	acc := b.Declare("acc", kir.CastTo(kir.F32, gid))
	b.For("i", kir.U(0), kir.U(256), kir.U(1), func(i kir.Expr) {
		b.Assign(acc, kir.Add(kir.Mul(acc, kir.F(1.0001)), kir.F(0.5)))
	})
	b.Store(out, gid, acc)
	return b.MustBuild()
}

func benchInterp(b *testing.B, parallel bool, eng Engine) {
	pk, err := compiler.Compile(simBenchKernel(), compiler.CUDA())
	if err != nil {
		b.Fatal(err)
	}
	dev, err := NewDevice(arch.GTX480())
	if err != nil {
		b.Fatal(err)
	}
	dev.Parallel = parallel
	dev.Engine = eng
	const threads = 64 * 1024
	addr, _ := dev.Global.Alloc(4 * threads)
	b.ReportAllocs()
	b.ResetTimer()
	var warpInstrs int64
	for i := 0; i < b.N; i++ {
		tr, err := dev.Launch(pk, Dim3{X: threads / 256, Y: 1}, Dim3{X: 256, Y: 1}, []uint32{addr})
		if err != nil {
			b.Fatal(err)
		}
		warpInstrs = tr.Dyn.Total
	}
	b.ReportMetric(float64(warpInstrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwarpinstr/s")
	b.ReportMetric(float64(warpInstrs), "warpinstrs")
}

func BenchmarkInterpreterSequential(b *testing.B) { benchInterp(b, false, EngineThreaded) }
func BenchmarkInterpreterParallel(b *testing.B)   { benchInterp(b, true, EngineThreaded) }

// straightLineKernel is a fully unrolled mad chain — one giant basic block,
// the best case for superinstruction fusion and the shape of the MaxFlops
// paper probe.
func straightLineKernel() *kir.Kernel {
	bb := kir.NewKernel("madchain")
	out := bb.GlobalBuffer("out", kir.F32)
	gid := bb.Declare("gid", bb.GlobalIDX())
	a := bb.Declare("a", kir.Add(kir.CastTo(kir.F32, gid), kir.F(0.5)))
	s := bb.Declare("s", kir.F(1.000001))
	c := bb.Declare("c", kir.F(0.999))
	bb.ForUnroll("r", kir.U(0), kir.U(64), kir.U(1), kir.UnrollFull, func(r kir.Expr) {
		for i := 0; i < 8; i++ {
			bb.Assign(a, kir.Add(kir.Mul(a, s), c))
		}
	})
	bb.Store(out, gid, a)
	return bb.MustBuild()
}

func BenchmarkStraightLineThreaded(b *testing.B) {
	pk, err := compiler.Compile(straightLineKernel(), compiler.CUDA())
	if err != nil {
		b.Fatal(err)
	}
	dev, err := NewDevice(arch.GTX480())
	if err != nil {
		b.Fatal(err)
	}
	dev.Parallel = false
	const threads = 64 * 1024
	addr, _ := dev.Global.Alloc(4 * threads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Launch(pk, Dim3{X: threads / 256, Y: 1}, Dim3{X: 256, Y: 1}, []uint32{addr}); err != nil {
			b.Fatal(err)
		}
	}
}

// The Reference variants run the retained pre-optimization engine on the
// same workload, so `go test -bench Interpreter` prints the speedup of the
// production engine directly.
func BenchmarkInterpreterReferenceSequential(b *testing.B) { benchInterp(b, false, EngineReference) }
func BenchmarkInterpreterReferenceParallel(b *testing.B)   { benchInterp(b, true, EngineReference) }

// benchDivergent measures the engines on a branch-divergent, shared-memory
// workload where the uniform fast path cannot trigger for the divergent
// region — the worst case for the production engine.
func benchDivergent(b *testing.B, eng Engine) {
	bb := kir.NewKernel("div")
	in := bb.GlobalBuffer("in", kir.U32)
	out := bb.GlobalBuffer("out", kir.U32)
	tile := bb.SharedArray("tile", kir.U32, 128)
	gid := bb.Declare("gid", bb.GlobalIDX())
	tid := bb.Declare("tid", kir.Bi(kir.TidX))
	v := bb.Declare("v", bb.Load(in, gid))
	bb.For("i", kir.U(0), kir.U(64), kir.U(1), func(i kir.Expr) {
		bb.IfElse(kir.Eq(kir.Rem(kir.Add(tid, i), kir.U(2)), kir.U(0)), func() {
			bb.Assign(v, kir.Add(v, kir.U(3)))
		}, func() {
			bb.Assign(v, kir.Mul(v, kir.U(5)))
		})
		bb.Store(tile, tid, v)
		bb.Barrier()
		bb.Assign(v, kir.Add(v, bb.Load(tile, kir.Rem(kir.Add(tid, kir.U(1)), kir.U(128)))))
		bb.Barrier()
	})
	bb.Store(out, gid, v)
	pk, err := compiler.Compile(bb.MustBuild(), compiler.OpenCL())
	if err != nil {
		b.Fatal(err)
	}
	dev, err := NewDevice(arch.GTX480())
	if err != nil {
		b.Fatal(err)
	}
	dev.Parallel = false
	dev.Engine = eng
	const threads = 16 * 1024
	inAddr, _ := dev.Global.Alloc(4 * threads)
	outAddr, _ := dev.Global.Alloc(4 * threads)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Launch(pk, Dim3{X: threads / 128, Y: 1}, Dim3{X: 128, Y: 1}, []uint32{inAddr, outAddr}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDivergentThreaded(b *testing.B)  { benchDivergent(b, EngineThreaded) }
func BenchmarkDivergentReference(b *testing.B) { benchDivergent(b, EngineReference) }

// BenchmarkLaunchOverhead measures the fixed per-launch cost of the
// simulator (setup, scheduling, trace merge) with a trivial kernel.
func BenchmarkLaunchOverhead(b *testing.B) {
	bb := kir.NewKernel("nop")
	out := bb.GlobalBuffer("out", kir.U32)
	bb.Store(out, bb.GlobalIDX(), kir.U(1))
	pk, err := compiler.Compile(bb.MustBuild(), compiler.OpenCL())
	if err != nil {
		b.Fatal(err)
	}
	dev, _ := NewDevice(arch.GTX280())
	addr, _ := dev.Global.Alloc(4 * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Launch(pk, Dim3{X: 1, Y: 1}, Dim3{X: 64, Y: 1}, []uint32{addr}); err != nil {
			b.Fatal(err)
		}
	}
}
