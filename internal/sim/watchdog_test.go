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

// hangKIR builds a kernel that never terminates: a for loop with step 0
// whose induction variable stays below the limit forever. The store keeps
// the loop alive through the optimiser; each work-group spins on its own
// word, so concurrent compute units never write the same host word.
func hangKIR() *kir.Kernel {
	b := kir.NewKernel("hang")
	out := b.GlobalBuffer("out", kir.U32)
	b.For("i", kir.U(0), kir.U(1), kir.U(0), func(i kir.Expr) {
		b.Store(out, kir.Bi(kir.CtaidX), i)
	})
	return b.MustBuild()
}

func TestWatchdogStepBudget(t *testing.T) {
	for _, p := range []compiler.Personality{compiler.CUDA(), compiler.OpenCL()} {
		pk := compile(t, hangKIR(), p)
		d := newDev(t, arch.GTX480())
		d.StepBudget = 50_000
		out := uploadU32(t, d, make([]uint32, 2))
		_, err := d.Launch(pk, Dim3{X: 2, Y: 1}, Dim3{X: 32, Y: 1}, []uint32{out})
		if !errors.Is(err, ErrWatchdog) {
			t.Fatalf("%s: Launch of non-terminating kernel: err = %v, want ErrWatchdog", p.Name, err)
		}
	}
}

func TestWatchdogCancelReclaimsLaunch(t *testing.T) {
	pk := compile(t, hangKIR(), compiler.CUDA())
	d := newDev(t, arch.GTX480())
	d.StepBudget = 0 // unbounded: only Cancel can stop it
	out := uploadU32(t, d, make([]uint32, 1))

	done := make(chan error, 1)
	go func() {
		_, err := d.Launch(pk, Dim3{X: 1, Y: 1}, Dim3{X: 32, Y: 1}, []uint32{out})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	d.Cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrWatchdog) {
			t.Fatalf("cancelled Launch: err = %v, want ErrWatchdog", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Cancel did not reclaim the launch within 10s")
	}
	if !d.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Subsequent launches on a cancelled device fail fast.
	if _, err := d.Launch(pk, Dim3{X: 1, Y: 1}, Dim3{X: 1, Y: 1}, []uint32{out}); !errors.Is(err, ErrWatchdog) {
		t.Fatalf("Launch on cancelled device: err = %v, want ErrWatchdog", err)
	}
}

// TestWatchdogSparesTerminatingKernels checks the default budget is far
// above what a real kernel executes: a vector add must run unharmed.
func TestWatchdogSparesTerminatingKernels(t *testing.T) {
	pk := compile(t, vecAddKIR(), compiler.CUDA())
	d := newDev(t, arch.GTX480())
	if d.StepBudget != DefaultStepBudget {
		t.Fatalf("StepBudget = %d, want DefaultStepBudget", d.StepBudget)
	}
	n := 1024
	a := uploadF32(t, d, make([]float32, n))
	b := uploadF32(t, d, make([]float32, n))
	c := uploadF32(t, d, make([]float32, n))
	if _, err := d.Launch(pk, Dim3{X: 8, Y: 1}, Dim3{X: 128, Y: 1}, []uint32{a, b, c, uint32(n)}); err != nil {
		t.Fatalf("Launch: %v", err)
	}
}

// budgetProbeKIR loops over straight-line runs split by a divergent and a
// uniform branch, so every iteration crosses several fused segments (under
// partial and full masks), and the branch arms end in stores: a segment's
// last op is then observable, and global memory records exactly how far the
// work-group got. out holds three regions of n words, n the thread count.
func budgetProbeKIR(trips, n uint32) *kir.Kernel {
	b := kir.NewKernel("budget_probe")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	acc := b.Declare("acc", kir.Add(gid, kir.U(1)))
	b.For("i", kir.U(0), kir.U(trips), kir.U(1), func(i kir.Expr) {
		for j := 0; j < 12; j++ {
			b.Assign(acc, kir.Add(kir.Mul(acc, kir.U(2654435761)), kir.Xor(i, kir.U(uint32(j)))))
		}
		b.If(kir.Eq(kir.Rem(kir.Add(gid, i), kir.U(3)), kir.U(0)), func() {
			for j := 0; j < 6; j++ {
				b.Assign(acc, kir.Xor(kir.Shl(acc, kir.U(1)), kir.U(uint32(0x55+j))))
			}
			b.Store(out, gid, acc)
		})
		b.If(kir.Eq(kir.Rem(i, kir.U(2)), kir.U(0)), func() {
			for j := 0; j < 8; j++ {
				b.Assign(acc, kir.Add(acc, kir.Shl(gid, kir.U(uint32(j)))))
			}
			b.Store(out, kir.Add(gid, kir.U(n)), acc)
		})
		b.Store(out, kir.Add(gid, kir.U(2*n)), acc)
	})
	return b.MustBuild()
}

// TestWatchdogBudgetExact sweeps StepBudget over every value from 1 to past
// the eighth loop iteration of the first warp, and over a window around the
// first CheckpointInterval boundary, so budgets land before, inside and at
// the end of fused segments, before and after a segment is block-compiled,
// and on both sides of a checkpoint. The production engine's single-op
// path is the only copy of the budget sequence outside the oracle: run
// sequentially it must return the oracle's exact error string and leave
// identical global memory on every device; run in parallel it must fail in
// the oracle's error class, and match bit for bit when the launch survives.
func TestWatchdogBudgetExact(t *testing.T) {
	const blocks, blockSize, trips = 2, 64, 24
	pk := compile(t, budgetProbeKIR(trips, blocks*blockSize), compiler.OpenCL())
	type result struct {
		tr    *Trace
		image []uint32
		err   error
	}
	for _, a := range arch.All() {
		run := func(eng Engine, parallel bool, budget uint64) result {
			d := newDev(t, a)
			d.Engine, d.Parallel, d.StepBudget = eng, parallel, budget
			out := uploadU32(t, d, make([]uint32, 3*blocks*blockSize))
			tr, err := d.Launch(pk, Dim3{X: blocks, Y: 1}, Dim3{X: blockSize, Y: 1}, []uint32{out})
			r := result{tr: tr, err: err, image: make([]uint32, d.Global.InUse()/4)}
			if err := d.Global.ReadWords(0, r.image); err != nil {
				t.Fatal(err)
			}
			return r
		}
		whole := run(EngineReference, false, 0)
		if whole.err != nil {
			t.Fatalf("%s: unbounded reference run: %v", a.Name, whole.err)
		}
		warps := (blockSize + a.SIMDWidth - 1) / a.SIMDWidth
		perBlock := uint64(whole.tr.Dyn.Total) / blocks
		iter := perBlock / uint64(warps) / trips // one warp's steps per loop iteration
		if perBlock/uint64(warps) <= CheckpointInterval+iter {
			t.Fatalf("%s: a warp retires %d steps, not past the first checkpoint", a.Name, perBlock/uint64(warps))
		}
		var budgets []uint64
		for b := uint64(1); b <= 8*iter+iter/2; b++ {
			budgets = append(budgets, b)
		}
		for b := CheckpointInterval - iter; b <= CheckpointInterval+iter; b++ {
			budgets = append(budgets, b)
		}
		budgets = append(budgets, perBlock-1, perBlock, perBlock+1)

		killed := 0
		for _, budget := range budgets {
			ref := run(EngineReference, false, budget)
			if (ref.err != nil) != (budget < perBlock) {
				t.Fatalf("%s budget %d of %d: reference err = %v", a.Name, budget, perBlock, ref.err)
			}
			if ref.err != nil {
				killed++
			}
			seq := run(EngineThreaded, false, budget)
			switch {
			case (ref.err == nil) != (seq.err == nil):
				t.Fatalf("%s budget %d: reference err = %v, threaded err = %v", a.Name, budget, ref.err, seq.err)
			case ref.err != nil && ref.err.Error() != seq.err.Error():
				t.Fatalf("%s budget %d: error mismatch:\nreference: %v\nthreaded:  %v", a.Name, budget, ref.err, seq.err)
			case ref.err == nil && !reflect.DeepEqual(ref.tr, seq.tr):
				t.Fatalf("%s budget %d: trace differs:\nref: %s\ngot: %s", a.Name, budget, ref.tr.Summary(), seq.tr.Summary())
			}
			if !reflect.DeepEqual(ref.image, seq.image) {
				t.Fatalf("%s budget %d: global memory differs from the reference engine", a.Name, budget)
			}

			par := run(EngineThreaded, true, budget)
			switch {
			case (ref.err == nil) != (par.err == nil),
				errors.Is(ref.err, ErrWatchdog) != errors.Is(par.err, ErrWatchdog):
				t.Fatalf("%s budget %d parallel: reference err = %v, threaded err = %v", a.Name, budget, ref.err, par.err)
			case ref.err == nil && !(reflect.DeepEqual(ref.tr, par.tr) && reflect.DeepEqual(ref.image, par.image)):
				t.Fatalf("%s budget %d parallel: surviving launch differs from the reference engine", a.Name, budget)
			}
		}
		if killed != len(budgets)-2 {
			t.Fatalf("%s: %d of %d budgets killed the launch, want all but the last two", a.Name, killed, len(budgets))
		}
	}
}
