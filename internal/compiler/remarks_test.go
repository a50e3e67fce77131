package compiler_test

import (
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/ptx"
)

// TestPaperKernelRemarksAreDistinct: every kernel of the sixteen paper
// benchmarks, under both personalities, carries each (phase, message) once,
// with a count of at least one. FFT's forward kernel under CUDA fires 1,049
// remarks in all, the total `paper passes` prints for it.
func TestPaperKernelRemarksAreDistinct(t *testing.T) {
	for _, spec := range bench.Registry() {
		for _, tc := range []string{"cuda", "opencl"} {
			d, err := bench.NewDriver(tc, arch.GTX480())
			if err != nil {
				t.Fatal(err)
			}
			cfg := bench.NativeConfig(tc)
			cfg.Scale = 2
			if _, err := spec.Run(d, cfg); err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, tc, err)
			}
			for _, kr := range bench.KernelReports(d) {
				seen := map[[2]string]bool{}
				for _, r := range kr.Remarks {
					if k := [2]string{r.Phase, r.Message}; seen[k] {
						t.Errorf("%s/%s/%s: %q listed twice", spec.Name, tc, kr.Name, r)
					} else {
						seen[k] = true
					}
					if r.Count < 1 {
						t.Errorf("%s/%s/%s: %q has count %d", spec.Name, tc, kr.Name, r, r.Count)
					}
				}
			}
		}
	}

	pk, err := compiler.Compile(bench.FFTKernel(), compiler.CUDA())
	if err != nil {
		t.Fatal(err)
	}
	if got := ptx.RemarkTotal(pk.Remarks); got != 1049 {
		t.Errorf("FFT forward/CUDA fired %d remarks, want 1049", got)
	}
}
