package tune

import (
	"encoding/json"
	"reflect"
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
	if len(RelevantKnobs("MD")) != 1 || RelevantKnobs("MD")[0] != "texture-memory" {
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
	if !ok || best.Settings["naive-transpose"] {
		t.Errorf("GPU tuner picked %s, expected the tiled transpose", best.Label())
	}
	cpu, err := Tune(direct, "opencl", arch.Intel920(), "TranP", 2)
	if err != nil {
		t.Fatal(err)
	}
	best, ok = cpu.Best()
	if !ok || !best.Settings["naive-transpose"] {
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
	if !best.Settings["texture-memory"] {
		t.Errorf("tuner picked %s, expected the texture variant", best.Label())
	}

	cpu, err := Tune(direct, "opencl", arch.Intel920(), "MD", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpu.Points) != 1 {
		t.Fatalf("CPU should only measure the non-texture variant, got %d points", len(cpu.Points))
	}
	if cpu.Points[0].Settings["texture-memory"] {
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
	if best.Settings["warp-per-row"] {
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
	if !best.Settings["constant-memory"] {
		t.Errorf("tuner picked %s, expected the constant-memory variant on GT200", best.Label())
	}
	// Time-valued metric: Value must be inverted so higher is better.
	if best.Value <= 0 || best.Raw <= 0 || best.Value != 1/best.Raw {
		t.Error("seconds metric should be inverted for ranking")
	}
}

func TestPointLabel(t *testing.T) {
	p := Point{Settings: map[string]bool{"texture-memory": true, "warp-per-row": false}}
	want := "+texture-memory -warp-per-row"
	if got := p.Label(); got != want {
		t.Errorf("label = %q, want %q", got, want)
	}
	if (Point{}).Label() != "(no knobs)" {
		t.Error("empty label wrong")
	}
}

// TestKnobTable: every knob has a unique name and a setter that changes
// exactly one Config field, and Label prints the names in the order
// cmd/paper's tune.golden shows them.
func TestKnobTable(t *testing.T) {
	seen := map[string]bool{}
	all := Point{Settings: map[string]bool{}}
	for _, k := range knobs {
		if k.name == "" || seen[k.name] {
			t.Errorf("knob name %q is empty or not unique", k.name)
		}
		seen[k.name] = true
		all.Settings[k.name] = true

		var cfg bench.Config
		k.set(&cfg, true)
		v := reflect.ValueOf(cfg)
		var changed []string
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				changed = append(changed, v.Type().Field(i).Name)
			}
		}
		if len(changed) != 1 {
			t.Errorf("knob %s sets fields %v, want exactly one", k.name, changed)
		}
		if k.set(&cfg, false); cfg != (bench.Config{}) {
			t.Errorf("knob %s off leaves %+v, want the zero Config", k.name, cfg)
		}
	}
	want := "+texture-memory +constant-memory +unroll@a +unroll@b +warp-per-row +naive-transpose"
	if got := all.Label(); got != want {
		t.Errorf("label = %q, want %q", got, want)
	}
	for _, b := range []string{"MD", "SPMV", "Sobel", "FDTD", "TranP"} {
		for _, name := range RelevantKnobs(b) {
			if !seen[name] {
				t.Errorf("%s names knob %q, which is not in the table", b, name)
			}
		}
	}
}

// TestTunePatternReplays is the determinism gate for the sweep's fan-out
// (run under -race in CI): the simulator is a pure function of the cell,
// so two sweeps must give the same report point for point, in the one
// order the report holds — OK first, Value descending, ties by mangle.
// Sobel on GTX480 has a tie: k0 and k1 run equally fast under CUDA.
func TestTunePatternReplays(t *testing.T) {
	first, err := TunePattern(direct, "cuda", arch.GTX480(), "Sobel", 8)
	if err != nil {
		t.Fatal(err)
	}
	again, err := TunePattern(direct, "cuda", arch.GTX480(), "Sobel", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Points) != len(again.Points) {
		t.Fatalf("point counts differ: %d, then %d", len(first.Points), len(again.Points))
	}
	for i, p := range first.Points {
		if q := again.Points[i]; p.Pattern != q.Pattern || p.Status != q.Status || p.Value != q.Value || p.Raw != q.Raw {
			t.Fatalf("point %d differs: %+v, then %+v", i, p, q)
		}
		if i == 0 {
			continue
		}
		prev := first.Points[i-1]
		ok, prevOK := p.Status == "OK", prev.Status == "OK"
		if ok && !prevOK || ok == prevOK && (prev.Value < p.Value || prev.Value == p.Value && prev.Pattern > p.Pattern) {
			t.Fatalf("points %d and %d out of order: %+v before %+v", i-1, i, prev, p)
		}
	}
	best, ok := first.Best()
	if !ok {
		t.Fatal("no OK point in the reduce schedule space")
	}
	if best.Pattern == "" {
		t.Fatal("pattern tuner produced a point without a schedule mangle")
	}
}

// TestTunePatternSweepsWholeSpace: every schedule in the rule space shows
// up exactly once, and at least the canonical one runs OK.
func TestTunePatternSweepsWholeSpace(t *testing.T) {
	rep, err := TunePattern(direct, "opencl", arch.GTX480(), "Scan", 512)
	if err != nil {
		t.Fatal(err)
	}
	space := bench.PatternSpace("Scan")
	if len(rep.Points) != len(space) {
		t.Fatalf("report has %d points, schedule space has %d", len(rep.Points), len(space))
	}
	want := map[string]bool{}
	for _, m := range space {
		want[m] = true
	}
	okCount := 0
	for _, p := range rep.Points {
		if !want[p.Pattern] {
			t.Fatalf("point %q not in (or duplicated from) the schedule space", p.Pattern)
		}
		delete(want, p.Pattern)
		if p.Status == "OK" {
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no schedule ran OK")
	}
	if rep.Space != "pattern" {
		t.Fatalf("report space = %q, want pattern", rep.Space)
	}
}

// TestReportJSONGolden pins the machine-readable wire format behind
// `/figures/tune`: field names, knob key rendering, omitted zero fields.
func TestReportJSONGolden(t *testing.T) {
	rep := &Report{
		Benchmark: "Sobel",
		Device:    "GeForce GTX480",
		Toolchain: "opencl",
		Metric:    "sec",
		Space:     "pattern",
		Points: []Point{
			{Pattern: "b16.c1.u0.f1.r0.t0.k1", Config: bench.Config{Scale: 2, Pattern: "b16.c1.u0.f1.r0.t0.k1"},
				Value: 4000, Raw: 0.00025, Status: "OK"},
			{Settings: map[string]bool{"constant-memory": true}, Config: bench.Config{Scale: 2, UseConstant: true},
				Status: "ABT"},
		},
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "benchmark": "Sobel",
  "device": "GeForce GTX480",
  "toolchain": "opencl",
  "metric": "sec",
  "space": "pattern",
  "points": [
    {
      "pattern": "b16.c1.u0.f1.r0.t0.k1",
      "config": {
        "scale": 2,
        "pattern": "b16.c1.u0.f1.r0.t0.k1"
      },
      "value": 4000,
      "raw": 0.00025,
      "status": "OK"
    },
    {
      "settings": {
        "constant-memory": true
      },
      "config": {
        "scale": 2,
        "use_constant": true
      },
      "status": "ABT"
    }
  ]
}`
	if string(got) != golden {
		t.Fatalf("report JSON drifted from golden form:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}

	var back Report
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Points[1].Settings["constant-memory"] {
		t.Fatal("knob settings did not round-trip")
	}
}
