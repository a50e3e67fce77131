package pattern

import (
	"errors"
	"testing"
	"time"

	"gpucmp/internal/kir"
)

// TestRunLoweredBounded: every host run is under the step budget, so a
// plan whose kernel never terminates comes back as a watchdog error
// instead of hanging its caller.
func TestRunLoweredBounded(t *testing.T) {
	k := &kir.Kernel{
		Name:   "spin",
		Params: []kir.Param{{Name: "out", T: kir.U32, Buffer: true, Space: kir.Global}},
		// for i := 0; i < 1; i += 0 { out[0] = i }
		Body: []kir.Stmt{&kir.ForStmt{Var: "i", T: kir.U32, Init: kir.U(0), Limit: kir.U(1), Step: kir.U(0),
			Body: []kir.Stmt{&kir.StoreStmt{Buf: "out", Index: kir.U(0), Value: &kir.VarRef{Name: "i", T: kir.U32}}}}},
	}
	l := &Lowered{
		Kernels:  []*kir.Kernel{k},
		Bufs:     []BufSpec{{Name: "out", Words: 1, Space: kir.Global, Role: RoleOutput}},
		Launches: []Launch{{Kernel: "spin", GridX: 1, GridY: 1, BlockX: 1, BlockY: 1, Args: []LaunchArg{BufArg("out")}}},
		Out:      "out",
		Key:      "spin",
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunLowered(l, EvalInputs{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, kir.ErrWatchdog) {
			t.Fatalf("RunLowered(spin) = %v, want kir.ErrWatchdog", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("RunLowered(spin) still running after a minute")
	}
}
