package tune

import (
	"encoding/json"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

// TestTunePatternParallelMatchesSequential is the determinism gate for the
// concurrent tuner (run under -race in CI): the simulator is a pure
// function of the job and the report sort is a total order, so the
// parallel sweep must reproduce the sequential report point for point.
func TestTunePatternParallelMatchesSequential(t *testing.T) {
	seq, err := TunePattern(direct, "opencl", arch.GTX480(), "Reduce", 256)
	if err != nil {
		t.Fatal(err)
	}
	par, err := TunePatternParallel(direct, "opencl", arch.GTX480(), "Reduce", 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Points) != len(par.Points) {
		t.Fatalf("point counts differ: sequential %d, parallel %d", len(seq.Points), len(par.Points))
	}
	for i := range seq.Points {
		s, p := seq.Points[i], par.Points[i]
		if s.Pattern != p.Pattern || s.Status != p.Status || s.Value != p.Value || s.Raw != p.Raw {
			t.Fatalf("point %d differs: sequential %+v, parallel %+v", i, s, p)
		}
	}
	best, ok := seq.Best()
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
	rep, err := TunePatternParallel(direct, "opencl", arch.GTX480(), "Scan", 512, 8)
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
			{Settings: map[Knob]bool{KnobConstant: true}, Config: bench.Config{Scale: 2, UseConstant: true},
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
	if !back.Points[1].Settings[KnobConstant] {
		t.Fatal("knob map key did not round-trip through its text form")
	}
}
