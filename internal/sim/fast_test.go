package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
)

// cancelProbeKIR builds a kernel where work-group (0,0) fails immediately
// with an out-of-bounds store while every other work-group spins forever.
// With an unbounded step budget the only way Launch can return is sibling
// cancellation: the failing unit's error must trip the shared abort flag
// and reclaim the spinning units at their next checkpoint. Each spinning
// group stores to its own word, so the kernel itself is race-free.
func cancelProbeKIR() *kir.Kernel {
	b := kir.NewKernel("cancel_probe")
	out := b.GlobalBuffer("out", kir.U32)
	b.IfElse(kir.Eq(kir.Bi(kir.CtaidX), kir.U(0)), func() {
		// 4*(1<<26) bytes past the buffer base: beyond the addressable window.
		b.Store(out, kir.U(1<<26), kir.U(1))
	}, func() {
		b.For("i", kir.U(0), kir.U(1), kir.U(0), func(i kir.Expr) {
			b.Store(out, kir.Bi(kir.CtaidX), i)
		})
	})
	return b.MustBuild()
}

// TestLaunchErrorCancelsSiblings is the regression test for the parallel
// Launch bug where one compute unit's failure did not stop its siblings:
// a launch whose other work-groups never terminate would hang in wg.Wait
// instead of returning the error. Both engines must observe the abort.
func TestLaunchErrorCancelsSiblings(t *testing.T) {
	pk := compile(t, cancelProbeKIR(), compiler.CUDA())
	for _, eng := range []Engine{EngineThreaded, EngineReference} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			d := newDev(t, arch.GTX480())
			d.Parallel = true
			d.Engine = eng
			d.StepBudget = 0 // unbounded: the watchdog cannot save us
			out := uploadU32(t, d, make([]uint32, 64))

			done := make(chan error, 1)
			go func() {
				// One block per compute unit: block 0 fails, all 14 others spin.
				_, err := d.Launch(pk, Dim3{X: d.Arch.ComputeUnits, Y: 1}, Dim3{X: 32, Y: 1}, []uint32{out})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Launch returned nil error for an out-of-bounds store")
				}
				if errors.Is(err, errAborted) {
					t.Fatalf("Launch leaked the internal abort sentinel: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Launch did not return: sibling compute units were not cancelled")
			}
		})
	}
}

// stressKIR exercises every fast path at once: divergent branches, shared
// memory with bank traffic, a barrier, global atomics, and both uniform
// and per-lane addressing.
func stressKIR() *kir.Kernel {
	b := kir.NewKernel("stress")
	in := b.GlobalBuffer("in", kir.U32)
	out := b.GlobalBuffer("out", kir.U32)
	ctr := b.GlobalBuffer("ctr", kir.U32)
	tile := b.SharedArray("tile", kir.U32, 64)
	gid := b.Declare("gid", b.GlobalIDX())
	tid := b.Declare("tid", kir.Bi(kir.TidX))
	v := b.Declare("v", b.Load(in, gid))
	b.Store(tile, tid, v)
	b.Barrier()
	// Divergent half-warp branch: odd lanes read a shuffled slot.
	b.IfElse(kir.Eq(kir.Rem(tid, kir.U(2)), kir.U(0)), func() {
		b.Assign(v, kir.Add(v, b.Load(tile, tid)))
	}, func() {
		b.Assign(v, kir.Add(v, b.Load(tile, kir.Rem(kir.Add(tid, kir.U(7)), kir.U(64)))))
	})
	b.If(kir.Gt(v, kir.U(100)), func() {
		b.Atomic(ctr, kir.U(0), kir.AtomicAdd, kir.U(1))
	})
	b.Store(out, gid, v)
	return b.MustBuild()
}

// TestParallelMatchesSequentialStress pins the bit-identical contract at
// the production engine's hot paths under -race: sequential and parallel,
// it must produce the same memory image and a DeepEqual trace as the
// sequential reference engine for a kernel with divergence, shared memory,
// barriers and atomics.
func TestParallelMatchesSequentialStress(t *testing.T) {
	const (
		blocks    = 33 // not a multiple of the unit count: uneven tails
		blockSize = 64
		n         = blocks * blockSize
	)
	in := make([]uint32, n)
	for i := range in {
		in[i] = uint32(i*2654435761) % 251
	}
	run := func(parallel bool, eng Engine) (*Trace, []uint32, uint32) {
		d := newDev(t, arch.GTX480())
		d.Parallel = parallel
		d.Engine = eng
		pk := compile(t, stressKIR(), compiler.OpenCL())
		inAddr := uploadU32(t, d, in)
		outAddr := uploadU32(t, d, make([]uint32, n))
		ctrAddr := uploadU32(t, d, []uint32{0})
		tr, err := d.Launch(pk, Dim3{X: blocks, Y: 1}, Dim3{X: blockSize, Y: 1},
			[]uint32{inAddr, outAddr, ctrAddr})
		if err != nil {
			t.Fatal(err)
		}
		outv := make([]uint32, n)
		if err := d.Global.ReadWords(outAddr, outv); err != nil {
			t.Fatal(err)
		}
		var ctrv [1]uint32
		if err := d.Global.ReadWords(ctrAddr, ctrv[:]); err != nil {
			t.Fatal(err)
		}
		return tr, outv, ctrv[0]
	}
	trRef, outRef, ctrRef := run(false, EngineReference)
	for _, parallel := range []bool{false, true} {
		tr, out, ctr := run(parallel, EngineThreaded)
		label := EngineThreaded.String()
		if parallel {
			label += "/parallel"
		}
		if !reflect.DeepEqual(out, outRef) || ctr != ctrRef {
			t.Fatalf("%s engine output differs from reference engine", label)
		}
		if !reflect.DeepEqual(tr, trRef) {
			t.Fatalf("%s trace differs:\nref: %s\ngot: %s", label, trRef.Summary(), tr.Summary())
		}
	}
	if trRef.DivergentBranches == 0 || trRef.Mem.AtomicOps == 0 || trRef.Mem.SharedAccesses == 0 {
		t.Fatalf("stress kernel did not exercise the intended paths: %s", trRef.Summary())
	}
}

// TestSteadyStateAllocsPerBlock pins the arena contract: once a device has
// executed a kernel shape once, running more work-groups of it must not
// allocate. The launch itself has fixed per-launch overhead (compute-unit
// statistic shards, the trace), so the test compares a small and a large
// grid and requires the per-extra-block delta to be ~zero.
func TestSteadyStateAllocsPerBlock(t *testing.T) {
	d := newDev(t, arch.GTX480())
	d.Parallel = false // AllocsPerRun needs single-goroutine determinism
	pk := compile(t, stressKIR(), compiler.CUDA())
	const blockSize = 64
	const smallGrid, largeGrid = 2, 130
	maxN := largeGrid * blockSize
	inAddr := uploadU32(t, d, make([]uint32, maxN))
	outAddr := uploadU32(t, d, make([]uint32, maxN))
	ctrAddr := uploadU32(t, d, []uint32{0})
	args := []uint32{inAddr, outAddr, ctrAddr}

	launch := func(grid int) {
		if _, err := d.Launch(pk, Dim3{X: grid, Y: 1}, Dim3{X: blockSize, Y: 1}, args); err != nil {
			t.Fatal(err)
		}
	}
	launch(largeGrid) // warm the decode cache and grow the arenas

	small := testing.AllocsPerRun(10, func() { launch(smallGrid) })
	large := testing.AllocsPerRun(10, func() { launch(largeGrid) })
	perBlock := (large - small) / float64(largeGrid-smallGrid)
	t.Logf("allocs/launch: small=%v large=%v -> %.4f allocs per extra block", small, large, perBlock)
	if perBlock > 0.5 {
		t.Errorf("steady-state allocations scale with grid size: %.2f allocs per work-group", perBlock)
	}
}
