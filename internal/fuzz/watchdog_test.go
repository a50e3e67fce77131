package fuzz

// The hang corpus: corpus/hangs/ stores deliberately non-terminating
// kernels (corpusFiles skips subdirectories, so the replay oracle never
// runs them as regressions). These tests pin the two defences against such
// kernels: the generator's static loop guard, and the step-budget watchdog
// that converts a runaway execution into a typed error on both the
// interpreter and the simulator paths.

import (
	"errors"
	"os"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
)

func hangProgram(t *testing.T) *Program {
	t.Helper()
	data, err := os.ReadFile("corpus/hangs/hang0.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHangCorpusTrippedByGuard(t *testing.T) {
	p := hangProgram(t)
	if err := CheckBoundedLoops(p.Kernel); err == nil {
		t.Fatal("CheckBoundedLoops accepted the step-0 hang kernel")
	}
}

func TestGeneratedKernelsPassLoopGuard(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		p := Generate(seed, DefaultConfig()) // Generate itself panics on a guard violation
		if err := CheckBoundedLoops(p.Kernel); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestReferenceWatchdogOnHang: the interpreter kills the hang kernel at
// its step budget and surfaces a typed kir.ErrWatchdog.
func TestReferenceWatchdogOnHang(t *testing.T) {
	p := hangProgram(t)
	_, err := Reference(p)
	if !errors.Is(err, kir.ErrWatchdog) {
		t.Fatalf("Reference(hang) = %v, want kir.ErrWatchdog", err)
	}
}

// TestCompiledWatchdogOnHang: both compiled personalities are killed by
// the device step budget and surface a typed sim.ErrWatchdog.
func TestCompiledWatchdogOnHang(t *testing.T) {
	p := hangProgram(t)
	for _, pers := range Toolchains() {
		pk, err := compiler.Compile(p.Kernel, pers)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Execute(p, pk, arch.GTX480()); !errors.Is(err, sim.ErrWatchdog) {
			t.Fatalf("%s: Execute(hang) = %v, want sim.ErrWatchdog", pers.Name, err)
		}
	}
}
