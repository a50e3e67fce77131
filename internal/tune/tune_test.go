package tune

import (
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

// direct runs a cell on a freshly opened driver, as core.Direct does
// (core imports this package, so its tests cannot import core).
func direct(a *arch.Device, toolchain string, spec bench.Spec, cfg bench.Config) (*bench.Result, error) {
	d, err := bench.NewDriver(toolchain, a)
	if err != nil {
		return nil, err
	}
	return spec.Run(d, cfg)
}

func TestRelevantKnobs(t *testing.T) {
	if len(RelevantKnobs("MD")) != 1 || RelevantKnobs("MD")[0] != KnobTexture {
		t.Error("MD should tune texture memory")
	}
	if len(RelevantKnobs("SPMV")) != 2 {
		t.Error("SPMV should tune texture and kernel shape")
	}
	if len(RelevantKnobs("FDTD")) != 2 {
		t.Error("FDTD should tune the two unroll points")
	}
	if RelevantKnobs("Reduce") != nil {
		t.Error("Reduce has no variant knobs")
	}
	if len(RelevantKnobs("TranP")) != 1 {
		t.Error("TranP should tune the shared-memory tile")
	}
}

// TestTuneTranPShapeDependsOnDevice: the tiled transpose wins on GPUs, the
// naive one wins on the implicitly-cached CPU (Section V).
func TestTuneTranPShape(t *testing.T) {
	gpu, err := Tune(direct, "opencl", arch.GTX280(), "TranP", 2)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := gpu.Best()
	if !ok || best.Settings[KnobNaiveTranspose] {
		t.Errorf("GPU tuner picked %s, expected the tiled transpose", best.Label())
	}
	cpu, err := Tune(direct, "opencl", arch.Intel920(), "TranP", 2)
	if err != nil {
		t.Fatal(err)
	}
	best, ok = cpu.Best()
	if !ok || !best.Settings[KnobNaiveTranspose] {
		t.Errorf("CPU tuner picked %s, expected the naive transpose", best.Label())
	}
}

// TestTuneMDPicksTextureOnGPU: on a GPU with a texture cache the tuner must
// select the texture variant; the CPU device has no texture path so only
// the plain variant is measured.
func TestTuneMDPicksTextureOnGPU(t *testing.T) {
	rep, err := Tune(direct, "cuda", arch.GTX280(), "MD", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("want 2 points, got %d", len(rep.Points))
	}
	best, ok := rep.Best()
	if !ok {
		t.Fatal("no OK point")
	}
	if !best.Settings[KnobTexture] {
		t.Errorf("tuner picked %s, expected the texture variant", best.Label())
	}

	cpu, err := Tune(direct, "opencl", arch.Intel920(), "MD", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu.Points) != 1 {
		t.Fatalf("CPU should only measure the non-texture variant, got %d points", len(cpu.Points))
	}
	if cpu.Points[0].Settings[KnobTexture] {
		t.Error("CPU point must not use texture memory")
	}
}

// TestTuneSPMVKernelShapeDependsOnDevice: warp-per-row is competitive on
// the GPU but must lose to thread-per-row on the CPU (the Section V
// observation the auto-tuner exists to automate).
func TestTuneSPMVKernelShape(t *testing.T) {
	cpu, err := Tune(direct, "opencl", arch.Intel920(), "SPMV", 4)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := cpu.Best()
	if !ok {
		t.Fatal("no OK point on CPU")
	}
	if best.Settings[KnobVectorKernel] {
		t.Errorf("CPU tuner picked %s; warp-per-row should lose on a CPU", best.Label())
	}
}

// TestTuneSobelConstantOnGT200: the constant-memory variant must win on the
// cacheless GT200.
func TestTuneSobelConstantOnGT200(t *testing.T) {
	rep, err := Tune(direct, "opencl", arch.GTX280(), "Sobel", 2)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := rep.Best()
	if !ok {
		t.Fatal("no OK point")
	}
	if !best.Settings[KnobConstant] {
		t.Errorf("tuner picked %s, expected the constant-memory variant on GT200", best.Label())
	}
	// Time-valued metric: Value must be inverted so higher is better.
	if best.Value <= 0 || best.Raw <= 0 || best.Value != 1/best.Raw {
		t.Error("seconds metric should be inverted for ranking")
	}
}

// TestTuneEverywhereSkipsCUDAOffNVIDIA.
func TestTuneEverywhere(t *testing.T) {
	reps, err := TuneEverywhere(direct, "cuda", "MD", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("CUDA tuning should cover the 2 NVIDIA GPUs, got %d", len(reps))
	}
	reps, err = TuneEverywhere(direct, "opencl", "Sobel", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 5 {
		t.Fatalf("OpenCL tuning should cover all 5 devices, got %d", len(reps))
	}
	for _, r := range reps {
		if _, ok := r.Best(); !ok {
			t.Errorf("%s: no runnable Sobel variant", r.Device)
		}
	}
}

func TestPointLabel(t *testing.T) {
	p := Point{Settings: map[Knob]bool{KnobTexture: true, KnobVectorKernel: false}}
	want := "+texture-memory -warp-per-row"
	if got := p.Label(); got != want {
		t.Errorf("label = %q, want %q", got, want)
	}
	if (Point{}).Label() != "(no knobs)" {
		t.Error("empty label wrong")
	}
}

func TestKnobStrings(t *testing.T) {
	for k := KnobTexture; k <= KnobVectorKernel; k++ {
		if k.String() == "" {
			t.Error("knob without a name")
		}
	}
}
