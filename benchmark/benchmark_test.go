package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declJSON `json:"end_to_end"`
	PerLayer []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and metrics.go
// in step: the program reports exactly the metrics the file declares.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadWhy) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.go %d", len(bj.Workloads), len(workloadWhy))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadWhy[i].Name || w.Why != workloadWhy[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, metrics.go %q", i, w.Name, workloadWhy[i].Name)
		}
		if _, err := newWorkload(w.Name, bj.RunSeconds); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		kind string
		json []declJSON
		decl []metricDecl
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.decl) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", c.kind, len(c.json), len(c.decl))
		}
		for i, d := range c.decl {
			if got := (metricDecl{c.json[i].Name, c.json[i].Unit, c.json[i].Better, c.json[i].Bound}); got != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, metrics.go %+v", c.kind, i, got, d)
			}
		}
	}
	if want := []string{"go", "run", "./benchmark"}; strings.Join(bj.Command, " ") != strings.Join(want, " ") {
		t.Errorf("command = %v", bj.Command)
	}
}

// TestGoldenReproducible regenerates the smoke scale's golden outcomes twice
// with the reference engine: both generations must equal the committed
// file's section byte for byte.
func TestGoldenReproducible(t *testing.T) {
	t.Parallel()
	for gen := 0; gen < 2; gen++ {
		blob, err := writeGolden(smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		// The committed file holds the measured scale's cells, then these.
		if section := bytes.TrimPrefix(blob, []byte("[\n")); !bytes.HasSuffix(goldenBlob, section) {
			t.Fatalf("generation %d differs from the committed golden/paper-grid.json; run go run ./benchmark -write-golden", gen)
		}
	}
}

// TestSmoke runs all four workloads at reduced size, plain and traced, and
// checks the schema, the metric names, that nothing failed and that nothing
// is left running. It asserts no timing.
func TestSmoke(t *testing.T) {
	t.Parallel()
	before := runtime.NumGoroutine()
	hot := &serveHot{rounds: 1, repeats: 16, traced: 96, working: 12}
	cold := &serveCold{rounds: 1, traced: 40}
	workloads := []workload{
		&paperGrid{scale: smokeScale, rounds: 1, traced: 32},
		&fuzzOracle{rounds: 1, perRound: 10, traced: 4},
		hot,
		cold,
	}
	for _, w := range workloads {
		if raceDetector && w == workload(cold) {
			// Found by this test: with compute units on goroutines, BFS and
			// DeviceMemory race on simulated global memory at scales that
			// are not powers of two (core.Direct alone reproduces it under
			// -race), and serve-cold draws such scales.
			t.Log("serve-cold skipped under -race: internal/sim races on simulated global memory")
			continue
		}
		plain, err := runPlain(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Failed != 0 || plain.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name(), plain.Failed, plain.Attempted)
		}
		if len(plain.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name(), len(plain.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := plain.Metrics[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name(), d.Name, m)
			}
		}

		traced, err := runTraced(w, 7, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if traced.Failed != 0 || traced.Attempted == 0 {
			t.Errorf("%s: %d of %d traced operations failed", w.Name(), traced.Failed, traced.Attempted)
		}
		if err := checkDeclared(traced.Metrics, perLayer); err != nil {
			t.Errorf("%s: %v", w.Name(), err)
		}
		if share := traced.Metrics["trace.self_sum_share"].Value; share < 0.9 || share > 1.5 { // hedged hops overlap, so the sum may exceed 1
			t.Errorf("%s: self times add up to %.3f of the traced op latency", w.Name(), share)
		}
		if r := traced.Metrics["sim.execnanos_over_wall"].Value; r > 1 {
			t.Errorf("%s: sim.execnanos_over_wall = %.3f", w.Name(), r)
		}
		var spans []span
		blob, err := os.ReadFile(traced.TraceFile)
		if err != nil || json.Unmarshal(blob, &spans) != nil || len(spans) == 0 {
			t.Errorf("%s: trace file %s: %v, %d spans", w.Name(), traced.TraceFile, err, len(spans))
		}
	}

	// Nothing listens and nothing runs once the workloads are closed.
	for _, url := range []string{hot.lastURL, cold.lastURL} {
		if conn, err := net.DialTimeout("tcp", strings.TrimPrefix(url, "http://"), time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections", url)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
