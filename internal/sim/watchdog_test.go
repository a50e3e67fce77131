package sim

import (
	"errors"
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
