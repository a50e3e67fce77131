package fuzz

import (
	"testing"

	"gpucmp/internal/kir"
)

// TestLoopCarriedCSE: value numbering must treat the head of a rolled loop
// as redefining the loop variable and everything the body assigns. A CSE
// entry made before the loop is otherwise reused by the body on every trip
// although it is only right on the first, in two shapes:
//
//   - holder clobbered: the entry lives in a variable's home register (the
//     OpenCL personality initialises variables in place) and the body
//     reassigns the variable after the reuse — seeds 204000039, 204001649;
//   - operand stale: the entry was computed from a variable the body
//     reassigns after the reuse — both personalities.
//
// Every kernel here diverged from the reference before the rule was added;
// the comment on each says under which personality. All loops have run-time
// bounds so that neither front-end unrolls them away.
func TestLoopCarriedCSE(t *testing.T) {
	const threads = 64
	type env struct {
		b       *kir.Builder
		in, out kir.Buf
		gid, n  kir.Expr
	}
	// reused is the expression the body shares with the code before the
	// loop; advance is how the body changes its operand afterwards.
	reused := func(x kir.Expr) kir.Expr { return kir.Mul(kir.Add(x, kir.U(1)), kir.U(2)) }
	advance := func(x kir.Expr) kir.Expr { return kir.Mul(x, kir.U(3)) }
	cases := []struct {
		name  string
		n     uint32
		build func(e env)
	}{
		// opencl: `shl.s32 %r4, %r4, 0x9` — trip 2 shifts trip 1's result.
		{"holder clobbered", 3, func(e env) {
			v := e.b.Declare("v", kir.CastTo(kir.I32, e.gid))
			e.b.For("i", kir.U(0), e.n, kir.U(1), func(kir.Expr) {
				e.b.Assign(v, kir.Shl(kir.CastTo(kir.I32, e.gid), kir.U(9)))
			})
			e.b.Store(e.out, e.gid, v)
		}},
		// cuda and opencl: the body keeps adding the pre-loop (x+1)*2.
		{"operand stale", 3, func(e env) {
			x := e.b.Declare("x", e.b.Load(e.in, e.gid))
			acc := e.b.Declare("acc", reused(x))
			e.b.For("i", kir.U(0), e.n, kir.U(1), func(kir.Expr) {
				e.b.Assign(acc, kir.Add(acc, reused(x)))
				e.b.Assign(x, advance(x))
			})
			e.b.Store(e.out, e.gid, acc)
		}},
		// cuda and opencl: the reassignment hides one loop further in.
		{"reassigned in a nested loop", 3, func(e env) {
			x := e.b.Declare("x", e.b.Load(e.in, e.gid))
			acc := e.b.Declare("acc", reused(x))
			e.b.For("i", kir.U(0), e.n, kir.U(1), func(kir.Expr) {
				e.b.Assign(acc, kir.Add(acc, reused(x)))
				e.b.For("j", kir.U(0), e.n, kir.U(2), func(kir.Expr) {
					e.b.Assign(x, advance(x))
				})
			})
			e.b.Store(e.out, e.gid, acc)
		}},
		// cuda (guarded) and opencl (if-converted to selp): the
		// reassignment is conditional, and lane-dependent.
		{"reassigned under an if", 4, func(e env) {
			x := e.b.Declare("x", e.b.Load(e.in, e.gid))
			acc := e.b.Declare("acc", reused(x))
			e.b.For("i", kir.U(0), e.n, kir.U(1), func(i kir.Expr) {
				e.b.Assign(acc, kir.Add(acc, reused(x)))
				e.b.If(kir.Eq(kir.And(kir.Add(i, e.gid), kir.U(1)), kir.U(0)), func() {
					e.b.Assign(x, advance(x))
				})
			})
			e.b.Store(e.out, e.gid, acc)
		}},
		// cuda and opencl: "#pragma unroll 4" over 10 trips runs the main
		// loop twice (its first copy is the stale one) and the remainder
		// loop twice; opencl's main loop is the spilling variant.
		{"partially unrolled", 10, func(e env) {
			x := e.b.Declare("x", e.b.Load(e.in, e.gid))
			acc := e.b.Declare("acc", reused(x))
			e.b.ForUnroll("i", kir.U(0), e.n, kir.U(1), 4, func(kir.Expr) {
				e.b.Assign(acc, kir.Add(acc, reused(x)))
				e.b.Assign(x, advance(x))
			})
			e.b.Store(e.out, e.gid, acc)
		}},
		// opencl: the loop variable's own register holds its initialiser's
		// entry, and the body (never mind the step) overwrites it.
		{"loop variable assigned in the body", 9, func(e env) {
			start := func() kir.Expr { return kir.Add(kir.And(e.gid, kir.U(3)), kir.U(1)) }
			acc := e.b.Declare("acc", kir.U(0))
			e.b.For("i", start(), e.n, kir.U(1), func(i kir.Expr) {
				e.b.Assign(acc, kir.Add(kir.Mul(acc, kir.U(5)), start()))
				e.b.Assign(i, kir.Add(i, kir.U(1)))
			})
			e.b.Store(e.out, e.gid, acc)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := kir.NewKernel("loopcse")
			e := env{b: b, in: b.GlobalBuffer("in", kir.U32), out: b.GlobalBuffer("out", kir.U32)}
			e.n = b.ScalarParam("n", kir.U32)
			e.gid = b.Declare("gid", b.GlobalIDX())
			tc.build(e)
			k, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			in := make([]uint32, threads)
			for i := range in {
				in[i] = uint32(7*i + 3)
			}
			p := &Program{Kernel: k, Grid: 2, Block: threads / 2, Out: "out",
				Buffers: map[string][]uint32{"in": in, "out": make([]uint32, threads)},
				Scalars: map[string]uint32{"n": tc.n}}
			res, err := Check(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Divergence != nil {
				t.Fatalf("miscompiled:\n%s", res.Divergence.Error())
			}
			if res.Executions == 0 {
				t.Fatal("no executions completed")
			}
		})
	}
}
