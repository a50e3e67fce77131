package kir

// Benchmarks of the host reference executor. It is not expected to be fast
// — a tree-walking evaluator over name-keyed maps — but its throughput is
// the baseline that puts the simulator's interpreter numbers (internal/sim
// benchmarks) in context.

import "testing"

func BenchmarkRunReferenceExecutor(b *testing.B) {
	bb := NewKernel("spin")
	out := bb.GlobalBuffer("out", U32)
	gid := bb.Declare("gid", bb.GlobalIDX())
	acc := bb.Declare("acc", gid)
	bb.For("i", U(0), U(64), U(1), func(i Expr) {
		bb.Assign(acc, Add(Mul(acc, U(3)), U(1)))
	})
	bb.Store(out, gid, acc)
	k := bb.MustBuild()

	const threads = 1024
	buf := make([]uint32, threads)
	cfg := RunConfig{
		GridX: threads / 64, GridY: 1, BlockX: 64, BlockY: 1,
		Buffers: map[string][]uint32{"out": buf},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(k, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(threads*66)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mstmt/s")
}

// BenchmarkRunReferenceExecutorBarriers is the barrier-heavy sibling: each
// work-item is suspended and resumed 7 times per launch inside a loop, the
// path every reduction- or scan-shaped fuzz program takes.
func BenchmarkRunReferenceExecutorBarriers(b *testing.B) {
	k := loopTreeSumKernel()
	const blocks = 16
	in := make([]uint32, blocks*64)
	for i := range in {
		in[i] = uint32(i)
	}
	cfg := RunConfig{
		GridX: blocks, GridY: 1, BlockX: 8, BlockY: 8,
		Buffers: map[string][]uint32{"in": in, "out": make([]uint32, blocks)},
		Scalars: map[string]uint32{"n": 6},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(k, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(blocks*64*7)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mbarrier/s")
}
