package kir

import (
	"math"
	"testing"
)

func f32s(fs ...float32) []uint32 {
	out := make([]uint32, len(fs))
	for i, f := range fs {
		out[i] = math.Float32bits(f)
	}
	return out
}

// TestRunVecAdd: basic global loads/stores and guards.
func TestRunVecAdd(t *testing.T) {
	b := NewKernel("vadd")
	a := b.GlobalBuffer("a", F32)
	bb := b.GlobalBuffer("b", F32)
	c := b.GlobalBuffer("c", F32)
	n := b.ScalarParam("n", U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.If(Lt(gid, n), func() {
		b.Store(c, gid, Add(b.Load(a, gid), b.Load(bb, gid)))
	})
	k := b.MustBuild()

	const nn = 100
	av := make([]uint32, 128)
	bv := make([]uint32, 128)
	cv := make([]uint32, 128)
	for i := range av {
		av[i] = math.Float32bits(float32(i))
		bv[i] = math.Float32bits(2 * float32(i))
	}
	err := Run(k, RunConfig{
		GridX: 2, GridY: 1, BlockX: 64, BlockY: 1,
		Buffers: map[string][]uint32{"a": av, "b": bv, "c": cv},
		Scalars: map[string]uint32{"n": nn},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		want := float32(0)
		if i < nn {
			want = 3 * float32(i)
		}
		if math.Float32frombits(cv[i]) != want {
			t.Fatalf("c[%d] = %g, want %g", i, math.Float32frombits(cv[i]), want)
		}
	}
}

// TestRunBarrierReduction: cross-thread communication through shared memory
// with barriers works under the reference executor.
func TestRunBarrierReduction(t *testing.T) {
	const blockSize = 64
	b := NewKernel("reduce")
	in := b.GlobalBuffer("in", U32)
	out := b.GlobalBuffer("out", U32)
	tile := b.SharedArray("tile", U32, blockSize)
	tid := Bi(TidX)
	b.Store(tile, tid, b.Load(in, b.GlobalIDX()))
	b.Barrier()
	b.For("p", U(0), U(6), U(1), func(p Expr) {
		stride := Shr(U(blockSize/2), p)
		b.If(Lt(tid, stride), func() {
			b.Store(tile, tid, Add(b.Load(tile, tid), b.Load(tile, Add(tid, stride))))
		})
		b.Barrier()
	})
	b.If(Eq(tid, U(0)), func() {
		b.Store(out, Bi(CtaidX), b.Load(tile, U(0)))
	})
	k := b.MustBuild()

	const blocks = 4
	in32 := make([]uint32, blocks*blockSize)
	want := make([]uint32, blocks)
	for i := range in32 {
		in32[i] = uint32(i % 17)
		want[i/blockSize] += in32[i]
	}
	out32 := make([]uint32, blocks)
	err := Run(k, RunConfig{
		GridX: blocks, GridY: 1, BlockX: blockSize, BlockY: 1,
		Buffers: map[string][]uint32{"in": in32, "out": out32},
		Scalars: map[string]uint32{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if out32[i] != want[i] {
			t.Fatalf("block %d sum = %d, want %d", i, out32[i], want[i])
		}
	}
}

// TestRunAtomics: tickets are a permutation under concurrent execution.
func TestRunAtomics(t *testing.T) {
	b := NewKernel("tickets")
	ctr := b.GlobalBuffer("ctr", U32)
	out := b.GlobalBuffer("out", U32)
	old := b.Declare("old", U(0))
	b.AtomicResult(ctr, U(0), AtomicAdd, U(1), old)
	b.Store(out, b.GlobalIDX(), old)
	k := b.MustBuild()

	ctr32 := make([]uint32, 1)
	out32 := make([]uint32, 64)
	if err := Run(k, RunConfig{GridX: 1, GridY: 1, BlockX: 64, BlockY: 1,
		Buffers: map[string][]uint32{"ctr": ctr32, "out": out32},
		Scalars: map[string]uint32{}}); err != nil {
		t.Fatal(err)
	}
	if ctr32[0] != 64 {
		t.Errorf("counter = %d, want 64", ctr32[0])
	}
	seen := map[uint32]bool{}
	for _, v := range out32 {
		if v >= 64 || seen[v] {
			t.Fatalf("tickets not a permutation: %v", out32)
		}
		seen[v] = true
	}
}

// TestRunErrorPaths: missing inputs, bad dimensions, and out-of-range
// accesses surface as errors (not deadlocks).
func TestRunErrorPaths(t *testing.T) {
	b := NewKernel("oops")
	out := b.GlobalBuffer("out", U32)
	b.Barrier()
	b.Store(out, U(1000), U(1))
	k := b.MustBuild()

	if err := Run(k, RunConfig{GridX: 0, GridY: 1, BlockX: 1, BlockY: 1}); err == nil {
		t.Error("bad dimensions accepted")
	}
	if err := Run(k, RunConfig{GridX: 1, GridY: 1, BlockX: 1, BlockY: 1,
		Buffers: map[string][]uint32{}}); err == nil {
		t.Error("missing buffer accepted")
	}
	// Out-of-range store with 64 threads: every thread must unwind (the
	// broken barrier must not deadlock the rest).
	err := Run(k, RunConfig{GridX: 1, GridY: 1, BlockX: 64, BlockY: 1,
		Buffers: map[string][]uint32{"out": make([]uint32, 4)},
		Scalars: map[string]uint32{}})
	if err == nil {
		t.Error("out-of-range store accepted")
	}
}

// TestRunFloatMath: float intrinsics agree with the math package.
func TestRunFloatMath(t *testing.T) {
	b := NewKernel("fm")
	out := b.GlobalBuffer("out", F32)
	x := b.Declare("x", F(2.25))
	b.Store(out, U(0), Sqrt(x))
	b.Store(out, U(1), Rsqrt(x))
	b.Store(out, U(2), Abs(Neg(x)))
	b.Store(out, U(3), Min(x, F(1)))
	b.Store(out, U(4), Max(x, F(10)))
	b.Store(out, U(5), Select(Ge(x, F(2)), F(1), F(0)))
	k := b.MustBuild()
	out32 := make([]uint32, 6)
	if err := Run(k, RunConfig{GridX: 1, GridY: 1, BlockX: 1, BlockY: 1,
		Buffers: map[string][]uint32{"out": out32},
		Scalars: map[string]uint32{}}); err != nil {
		t.Fatal(err)
	}
	want := []float32{1.5, 1 / 1.5, 2.25, 1, 10, 1}
	for i, w := range want {
		if got := math.Float32frombits(out32[i]); got != w {
			t.Errorf("out[%d] = %g, want %g", i, got, w)
		}
	}
	_ = f32s
}
