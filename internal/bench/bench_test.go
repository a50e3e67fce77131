package bench

import (
	"errors"
	"testing"

	"gpucmp/internal/arch"
)

// testCfg returns a fast configuration that keeps each benchmark's native
// implementation choices for the toolchain.
func testCfg(toolchain string, scale int) Config {
	c := NativeConfig(toolchain)
	c.Scale = scale
	return c
}

// mustSpec looks a registered benchmark up by name: tests run benchmarks
// through the registry, which names and prices every result.
func mustSpec(name string) Spec {
	s, err := SpecByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// TestAllBenchmarksCorrectOnNVIDIA runs every registered benchmark with
// both toolchains on both NVIDIA GPUs at reduced scale and requires correct
// results everywhere.
func TestAllBenchmarksCorrectOnNVIDIA(t *testing.T) {
	for _, devArch := range []*arch.Device{arch.GTX280(), arch.GTX480()} {
		for _, tc := range []string{"cuda", "opencl"} {
			for _, spec := range Registry() {
				spec := spec
				t.Run(devArch.Name+"/"+tc+"/"+spec.Name, func(t *testing.T) {
					d, err := NewDriver(tc, devArch)
					if err != nil {
						t.Fatalf("driver: %v", err)
					}
					res, err := spec.Run(d, testCfg(tc, 4))
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if res.Err != nil {
						t.Fatalf("benchmark aborted: %v", res.Err)
					}
					if !res.Correct {
						t.Fatal("benchmark produced wrong results")
					}
					if res.Value <= 0 {
						t.Fatalf("metric value %g not positive", res.Value)
					}
					if res.KernelSeconds <= 0 {
						t.Fatal("no kernel time recorded")
					}
					if res.Metric != spec.Metric {
						t.Fatalf("metric %q, want %q", res.Metric, spec.Metric)
					}
				})
			}
		}
	}
}

// TestCUDAUnavailableOffNVIDIA: CUDA drivers must refuse non-NVIDIA
// devices (why Table VI is OpenCL-only), and open on NVIDIA ones.
func TestCUDAUnavailableOffNVIDIA(t *testing.T) {
	for _, a := range []*arch.Device{arch.HD5870(), arch.Intel920(), arch.CellBE()} {
		if _, err := NewDriver("cuda", a); !errors.Is(err, ErrNoCUDADevice) {
			t.Errorf("%s: err = %v, want ErrNoCUDADevice", a.Name, err)
		}
	}
	if _, err := NewDriver("cuda", arch.GTX280()); err != nil {
		t.Errorf("GTX280: %v", err)
	}
}

// TestRdxSWavefrontFailure: the radix sort must complete-but-fail on
// 64-wide wavefront devices (Table VI "FL") while staying correct on
// 32-wide NVIDIA parts.
func TestRdxSWavefrontFailure(t *testing.T) {
	for _, tt := range []struct {
		dev     *arch.Device
		correct bool
	}{
		{arch.GTX280(), true},
		{arch.GTX480(), true},
		{arch.HD5870(), false},
		{arch.Intel920(), false},
	} {
		d, err := NewDriver("opencl", tt.dev)
		if err != nil {
			t.Fatalf("%s: %v", tt.dev.Name, err)
		}
		res, err := mustSpec("RdxS").Run(d, testCfg("opencl", 4))
		if err != nil {
			t.Fatalf("%s: %v", tt.dev.Name, err)
		}
		if res.Err != nil {
			t.Fatalf("%s: unexpected abort: %v", tt.dev.Name, res.Err)
		}
		if res.Correct != tt.correct {
			t.Errorf("%s: correct=%v, want %v (status %s)", tt.dev.Name, res.Correct, tt.correct, res.Status())
		}
	}
}

// TestCellAborts: FFT, DXTC, RdxS and STNW must abort with
// CL_OUT_OF_RESOURCES on the Cell/BE, everything else must run (Table VI).
func TestCellAborts(t *testing.T) {
	abtSet := map[string]bool{"FFT": true, "DXTC": true, "RdxS": true, "STNW": true}
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d, err := NewDriver("opencl", arch.CellBE())
			if err != nil {
				t.Fatalf("driver: %v", err)
			}
			res, err := spec.Run(d, testCfg("opencl", 8))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if abtSet[spec.Name] {
				if res.Err == nil {
					t.Fatalf("expected ABT on Cell/BE, got status %s", res.Status())
				}
				if !errors.Is(res.Err, clOutOfResources) {
					t.Fatalf("expected CL_OUT_OF_RESOURCES, got %v", res.Err)
				}
			} else {
				if res.Err != nil {
					t.Fatalf("unexpected abort: %v", res.Err)
				}
				if !res.Correct {
					t.Fatal("wrong results on Cell/BE")
				}
			}
		})
	}
}

var errInjectedAlloc = errors.New("injected allocation failure")

// allocFailDriver counts Allocs and fails the failAt-th one (1-based; 0
// never fails).
type allocFailDriver struct {
	Driver
	failAt, allocs int
}

func (d *allocFailDriver) Alloc(bytes uint32) (Buf, error) {
	d.allocs++
	if d.allocs == d.failAt {
		return Buf{}, errInjectedAlloc
	}
	return d.Driver.Alloc(bytes)
}

// TestAllocFailureAborts: whichever allocation fails, every benchmark
// reports ABT carrying that error — not FL, not OK, and not a panic from
// using a buffer that was never allocated.
func TestAllocFailureAborts(t *testing.T) {
	for _, tc := range []string{"cuda", "opencl"} {
		for _, spec := range Registry() {
			tc, spec := tc, spec
			t.Run(tc+"/"+spec.Name, func(t *testing.T) {
				t.Parallel()
				run := func(failAt int) (res *Result, allocs int) {
					t.Helper()
					inner, err := NewDriver(tc, arch.GTX480())
					if err != nil {
						t.Fatal(err)
					}
					d := &allocFailDriver{Driver: inner, failAt: failAt}
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("alloc #%d failing: panic: %v", failAt, p)
						}
					}()
					if res, err = spec.Run(d, testCfg(tc, 64)); err != nil {
						t.Fatal(err)
					}
					return res, d.allocs
				}
				_, total := run(0)
				if total == 0 {
					t.Fatal("benchmark allocated nothing")
				}
				for k := 1; k <= total; k++ {
					if res, _ := run(k); !errors.Is(res.Err, errInjectedAlloc) {
						t.Errorf("alloc #%d of %d failing: status %s, err %v", k, total, res.Status(), res.Err)
					}
				}
			})
		}
	}
}

// TestHD5870RunsEverythingExceptRdxS: Table VI row 1.
func TestHD5870Portability(t *testing.T) {
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			d, err := NewDriver("opencl", arch.HD5870())
			if err != nil {
				t.Fatalf("driver: %v", err)
			}
			res, err := spec.Run(d, testCfg("opencl", 8))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Err != nil {
				t.Fatalf("unexpected abort: %v", res.Err)
			}
			wantCorrect := spec.Name != "RdxS"
			if res.Correct != wantCorrect {
				t.Errorf("correct=%v, want %v", res.Correct, wantCorrect)
			}
		})
	}
}

// TestNativeConfigChoices documents the per-toolchain implementation
// choices the paper describes.
func TestNativeConfigChoices(t *testing.T) {
	cu := NativeConfig("cuda")
	cl := NativeConfig("opencl")
	if !cu.UseTexture || cl.UseTexture {
		t.Error("texture memory is native to the CUDA MD/SPMV only")
	}
	if cu.UseConstant || !cl.UseConstant {
		t.Error("constant memory is native to the OpenCL Sobel only")
	}
	if !cu.UnrollA || cl.UnrollA {
		t.Error("pragma unroll at point a is native to the CUDA FDTD only")
	}
	if !cu.UnrollB || !cl.UnrollB {
		t.Error("both FDTD implementations carry the pragma at point b")
	}
}

// TestSpecLookup checks the registry.
func TestSpecLookup(t *testing.T) {
	if len(Registry()) != 16 {
		t.Fatalf("registry has %d entries, want 16", len(Registry()))
	}
	if _, err := SpecByName("FFT"); err != nil {
		t.Error(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("unknown benchmark should fail lookup")
	}
}

// TestResultStatus covers the Table VI status strings.
func TestResultStatus(t *testing.T) {
	if (&Result{Correct: true}).Status() != "OK" {
		t.Error("OK status wrong")
	}
	if (&Result{Correct: false}).Status() != "FL" {
		t.Error("FL status wrong")
	}
	if (&Result{Err: errors.New("x")}).Status() != "ABT" {
		t.Error("ABT status wrong")
	}
}

// TestTranPNaiveFasterOnCPU: explicit local memory is pure overhead on the
// implicitly-cached CPU device (Section V), while GPUs need the tile.
func TestTranPNaiveFasterOnCPU(t *testing.T) {
	run := func(a *arch.Device, naive bool) float64 {
		d, err := NewDriver("opencl", a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mustSpec("TranP").Run(d, Config{Scale: 2, NaiveTranspose: naive})
		if err != nil || res.Err != nil {
			t.Fatal(err, res.Err)
		}
		if !res.Correct {
			t.Fatal("transpose wrong")
		}
		return res.Value
	}
	cpu := arch.Intel920()
	if naive, tiled := run(cpu, true), run(cpu, false); naive <= tiled {
		t.Errorf("CPU: naive %.3f GB/s should beat tiled %.3f GB/s", naive, tiled)
	}
	gpu := arch.GTX280()
	if naive, tiled := run(gpu, true), run(gpu, false); tiled <= naive {
		t.Errorf("GPU: tiled %.3f GB/s should beat naive %.3f GB/s", tiled, naive)
	}
}

// TestBandwidthScaleInvariance: the DeviceMemory probe reports roughly the
// same achieved bandwidth regardless of problem size (it measures the
// machine, not the workload).
func TestBandwidthScaleInvariance(t *testing.T) {
	run := func(scale int) float64 {
		d, err := NewDriver("opencl", arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		res, err := mustSpec("DeviceMemory").Run(d, Config{Scale: scale})
		if err != nil || res.Err != nil {
			t.Fatal(err, res.Err)
		}
		return res.Value
	}
	a, b := run(2), run(8)
	ratio := a / b
	if ratio < 0.85 || ratio > 1.18 {
		t.Errorf("bandwidth should be scale-invariant: %.1f vs %.1f GB/s (ratio %.2f)", a, b, ratio)
	}
}
