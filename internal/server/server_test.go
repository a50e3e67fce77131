package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/core"
	"gpucmp/internal/golden"
	"gpucmp/internal/sched"
)

func newTestServer(t *testing.T) (*httptest.Server, *sched.Scheduler) {
	t.Helper()
	s := sched.New(sched.Options{Workers: 4})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(New(s, WithFigureScale(16)).Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" {
		t.Errorf("status field = %v", out["status"])
	}
}

func TestDevicesAndBenchmarks(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, body := get(t, ts.URL+"/devices")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/devices status = %d", resp.StatusCode)
	}
	var devs []deviceInfo
	if err := json.Unmarshal(body, &devs); err != nil {
		t.Fatal(err)
	}
	if len(devs) != len(arch.All()) {
		t.Errorf("%d devices, want %d", len(devs), len(arch.All()))
	}
	for _, d := range devs {
		wantCUDA := d.Vendor == "NVIDIA"
		hasCUDA := false
		for _, tc := range d.Toolchains {
			if tc == "cuda" {
				hasCUDA = true
			}
		}
		if hasCUDA != wantCUDA {
			t.Errorf("device %s: cuda toolchain = %v, want %v", d.Name, hasCUDA, wantCUDA)
		}
	}

	resp, body = get(t, ts.URL+"/benchmarks")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/benchmarks status = %d", resp.StatusCode)
	}
	var benches []benchmarkInfo
	if err := json.Unmarshal(body, &benches); err != nil {
		t.Fatal(err)
	}
	if len(benches) != 16 {
		t.Errorf("%d benchmarks, want 16", len(benches))
	}
}

func TestRunCachesSecondRequest(t *testing.T) {
	ts, s := newTestServer(t)
	body := `{"benchmark":"Reduce","device":"GeForce GTX480","toolchain":"opencl","config":{"scale":16}}`

	post := func() (int, runResponse, string) {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out runResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out, resp.Header.Get("X-Cache")
	}

	code, first, xc := post()
	if code != http.StatusOK {
		t.Fatalf("first POST status = %d", code)
	}
	if first.Cached || xc != "miss" {
		t.Errorf("first request: cached=%v X-Cache=%q, want fresh miss", first.Cached, xc)
	}
	if first.Result == nil || first.Result.Benchmark != "Reduce" || first.Result.Value <= 0 {
		t.Fatalf("bad result: %+v", first.Result)
	}

	code, second, xc := post()
	if code != http.StatusOK {
		t.Fatalf("second POST status = %d", code)
	}
	if !second.Cached || xc != "hit" {
		t.Errorf("second request: cached=%v X-Cache=%q, want cache hit", second.Cached, xc)
	}
	if second.Result.Value != first.Result.Value {
		t.Errorf("cached value %v != original %v", second.Result.Value, first.Result.Value)
	}
	if snap := s.Metrics().Snapshot(); snap.CacheHits != 1 || snap.JobsRun != 1 {
		t.Errorf("metrics after two identical POSTs: %+v", snap)
	}
}

func TestRunRejectsBadBodies(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []string{
		`{"benchmark":"NoSuch","device":"GeForce GTX480","toolchain":"cuda"}`,
		`{"benchmark":"FFT","device":"GTX9000","toolchain":"cuda"}`,
		`{"benchmark":"FFT","device":"Radeon HD5870","toolchain":"cuda"}`,
		`{"benchmark":"FFT","device":"GeForce GTX480","toolchain":"cuda","bogus":1}`,
		`not json`,
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", c, resp.StatusCode)
		}
	}
	// GET is not allowed.
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status = %d, want 405", resp.StatusCode)
	}
}

func TestFigureEndpointsAndUnknownFigure(t *testing.T) {
	ts, s := newTestServer(t)

	// fig8 is the cheapest figure: 2 devices x 2 Sobel configs.
	resp, body := get(t, ts.URL+"/figures/fig8?scale=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/figures/fig8 status = %d: %s", resp.StatusCode, body)
	}
	var f struct {
		Figure string `json:"figure"`
		Scale  int    `json:"scale"`
		Data   []struct {
			Device       string  `json:"device"`
			WithConst    float64 `json:"with_const"`
			WithoutConst float64 `json:"without_const"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.Figure != "fig8" || f.Scale != 16 || len(f.Data) != 2 {
		t.Fatalf("fig8 payload: %+v", f)
	}
	for _, d := range f.Data {
		if d.WithConst <= 0 || d.WithoutConst <= d.WithConst {
			t.Errorf("%s: constant memory should win: with=%v without=%v", d.Device, d.WithConst, d.WithoutConst)
		}
	}

	// A repeated figure request is served entirely from the result cache.
	jobsBefore := s.Metrics().Snapshot().JobsRun
	if resp, _ := get(t, ts.URL+"/figures/fig8?scale=16"); resp.StatusCode != http.StatusOK {
		t.Fatal("second fig8 request failed")
	}
	if jobsAfter := s.Metrics().Snapshot().JobsRun; jobsAfter != jobsBefore {
		t.Errorf("repeated figure ran %d new jobs, want 0", jobsAfter-jobsBefore)
	}

	// tableV is a static compile study.
	resp, body = get(t, ts.URL+"/figures/tableV")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/figures/tableV status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "ld.param") && !strings.Contains(string(body), "ld.const") {
		t.Errorf("tableV should census parameter loads: %.200s", body)
	}

	resp, _ = get(t, ts.URL+"/figures/fig1?scale=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scale status = %d, want 400", resp.StatusCode)
	}
}

// TestFigureBodiesPinned pins every /figures/{id} body at scale 16 by the
// SHA-256 of its re-indented bytes (fig3's body is 2.2 MB), in
// testdata/figures.sha256, and the exact 404 body for an unknown id,
// re-indented the same way, in testdata/figure_unknown.json. The bodies
// are deterministic, so a moved digest means a figure now serves
// something else; a new entry in core's figure table fails here until
// -update records it.
func TestFigureBodiesPinned(t *testing.T) {
	ts, _ := newTestServer(t)
	var digests bytes.Buffer
	for _, id := range core.FigureIDs() {
		resp, body := get(t, ts.URL+"/figures/"+id+"?scale=16")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/figures/%s status = %d: %.200s", id, resp.StatusCode, body)
		}
		fmt.Fprintf(&digests, "%s %x\n", id, sha256.Sum256(reindented(t, body)))
	}
	golden.Check(t, "testdata/figures.sha256", digests.Bytes())
	resp, body := get(t, ts.URL+"/figures/fig99")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure: status %d, want 404", resp.StatusCode)
	}
	golden.Check(t, "testdata/figure_unknown.json", reindented(t, body))
}

func TestMetricsExposition(t *testing.T) {
	ts, s := newTestServer(t)
	// Produce one miss and one hit.
	body := `{"benchmark":"Reduce","device":"GeForce GTX280","toolchain":"cuda","config":{"scale":16}}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, text := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"gpucmpd_jobs_total 1",
		"gpucmpd_cache_hits_total 1",
		"gpucmpd_cache_misses_total 1",
		"gpucmpd_compile_cache_",
		`gpucmpd_job_seconds_count{benchmark="Reduce"} 1`,
		"gpucmpd_warp_instrs_total",
		"gpucmpd_lane_instrs_total",
		"gpucmpd_sim_superinstr_hits_total",
		"gpucmpd_sim_superinstr_ops_total",
		"gpucmpd_sim_block_compiles_total",
		`gpucmpd_sim_engine_warp_instrs_total{engine="threaded"}`,
		`gpucmpd_sim_engine_lane_instrs_total{engine="reference"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	// Programs live with their kernels, so there is no cache to evict from.
	for _, gone := range []string{"gpucmpd_sim_threaded_cache_entries", "gpucmpd_sim_threaded_cache_evictions_total", `engine="fast"`} {
		if strings.Contains(string(text), gone) {
			t.Errorf("/metrics still carries %q", gone)
		}
	}
	// The executed Reduce job must have accounted real simulated work, and
	// lane instructions weight warp instructions by active lanes.
	if m := regexp.MustCompile(`gpucmpd_warp_instrs_total (\d+)`).FindStringSubmatch(string(text)); m == nil || m[1] == "0" {
		t.Errorf("gpucmpd_warp_instrs_total not positive:\n%s", text)
	}
	// The default engine is threaded, so a real job must have retired work
	// through fused-segment dispatches.
	if m := regexp.MustCompile(`gpucmpd_sim_superinstr_hits_total (\d+)`).FindStringSubmatch(string(text)); m == nil || m[1] == "0" {
		t.Errorf("gpucmpd_sim_superinstr_hits_total not positive after a threaded-engine job:\n%s", text)
	}

	resp, jsonText := get(t, ts.URL+"/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics?format=json status = %d", resp.StatusCode)
	}
	var snap sched.Snapshot
	if err := json.Unmarshal(jsonText, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobsRun != 1 || snap.CacheHits != 1 {
		t.Errorf("json snapshot: %+v", snap)
	}
	_ = s
}
