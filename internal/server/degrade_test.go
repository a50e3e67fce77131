package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
)

func postRun(t *testing.T, url string, job sched.Job) (*http.Response, runResponse, string) {
	t.Helper()
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out runResponse
	raw := json.NewDecoder(resp.Body)
	var errBody string
	if resp.StatusCode == http.StatusOK {
		if err := raw.Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		var eb errorBody
		raw.Decode(&eb) //nolint:errcheck
		errBody = eb.Error
	}
	return resp, out, errBody
}

// TestDegradedEstimateWhenEveryJobHangs: the live path always hits the
// watchdog; a rate-valued benchmark must be served as a perfmodel estimate
// with the Degraded marker, not a 500.
func TestDegradedEstimateWhenEveryJobHangs(t *testing.T) {
	inj := fault.New(7, fault.Schedule{HangRate: 1.0})
	s := sched.New(sched.Options{Workers: 1, JobTimeout: 20 * time.Millisecond, Injector: inj})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(New(s).Handler())
	t.Cleanup(ts.Close)

	job := sched.Job{Benchmark: "Reduce", Device: "GeForce GTX480", Toolchain: "opencl"}
	job.Config.Scale = 16
	resp, out, _ := postRun(t, ts.URL, job)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degraded estimate)", resp.StatusCode)
	}
	if !out.Degraded || out.DegradedMode != "estimate" || out.Served != "degraded" {
		t.Fatalf("response = %+v, want degraded estimate", out)
	}
	if out.Result == nil || out.Result.Value <= 0 || out.Result.Metric != "GB/sec" {
		t.Fatalf("estimate result = %+v, want a positive GB/sec value", out.Result)
	}
	if out.DegradedCause == "" {
		t.Error("degraded response must carry the live-path failure cause")
	}
	if resp.Header.Get("X-Cache") != "degraded" {
		t.Errorf("X-Cache = %q, want degraded", resp.Header.Get("X-Cache"))
	}
}

// TestDegradationLadderStaleAnd503 drives the full ladder on a time-valued
// benchmark (no analytical estimate exists for "sec"): a breaker trip must
// route a previously-seen job to its stale result and a never-seen job to
// 503 + Retry-After, while /healthz and /metrics reflect the open breaker.
func TestDegradationLadderStaleAnd503(t *testing.T) {
	const seed = 11
	schedule := fault.Schedule{TransientRate: 0.5}
	device := "GeForce GTX480"

	mkJob := func(scale int) sched.Job {
		j := sched.Job{Benchmark: "Sobel", Device: device, Toolchain: "opencl"}
		j.Config.Scale = scale
		return j
	}
	// Replay the injector's deterministic schedule to find a job whose
	// first launch is clean (to populate the stale store) and two whose
	// first launch faults (to trip the breaker).
	probe := fault.New(seed, schedule)
	goodScale, badScales := 0, []int{}
	for scale := 16; scale < 64; scale++ {
		if probe.Launch(mkJob(scale).Key()) == nil {
			if goodScale == 0 {
				goodScale = scale
			}
		} else if len(badScales) < 2 {
			badScales = append(badScales, scale)
		}
	}
	if goodScale == 0 || len(badScales) < 2 {
		t.Fatalf("seed %d yielded no usable schedule (good=%d bad=%v)", seed, goodScale, badScales)
	}

	inj := fault.New(seed, schedule)
	s := sched.New(sched.Options{
		Workers:   1,
		CacheSize: -1, // no result cache: repeat requests exercise the live path
		Retry:     sched.RetryPolicy{MaxAttempts: 1},
		Breaker:   sched.BreakerConfig{FailureThreshold: 2, CoolDown: time.Hour},
		Injector:  inj,
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(New(s).Handler())
	t.Cleanup(ts.Close)

	// 1. A clean run populates the stale store.
	resp, out, _ := postRun(t, ts.URL, mkJob(goodScale))
	if resp.StatusCode != http.StatusOK || out.Degraded {
		t.Fatalf("clean run: status %d degraded %v, want live 200", resp.StatusCode, out.Degraded)
	}

	// 2. Two faulting jobs exhaust their single attempt: 500s (Permanent),
	// and the second trips the device's breaker.
	for _, scale := range badScales {
		if resp, _, _ := postRun(t, ts.URL, mkJob(scale)); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulting job scale %d: status %d, want 500", scale, resp.StatusCode)
		}
	}
	if b := s.Breakers(); len(b) != 1 || b[0].Device != device || b[0].State != sched.BreakerOpen.String() {
		t.Fatalf("breakers = %+v, want %s open after %d failures", b, device, 2)
	}

	// 3. The previously-seen job is denied by the breaker; "sec" has no
	// estimate, so it is served stale with the Degraded marker.
	resp, out, _ = postRun(t, ts.URL, mkJob(goodScale))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale rung: status %d, want 200", resp.StatusCode)
	}
	if !out.Degraded || out.DegradedMode != "stale" || out.Result == nil || out.Result.Benchmark != "Sobel" {
		t.Fatalf("stale rung: %+v, want degraded stale Sobel result", out)
	}
	if !strings.Contains(out.DegradedCause, "breaker") {
		t.Errorf("cause = %q, want the breaker denial", out.DegradedCause)
	}

	// 4. A never-seen job has no stale entry either: 503 + Retry-After.
	resp, _, errMsg := postRun(t, ts.URL, mkJob(99))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("503 rung: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want the breaker cool-down", ra)
	}
	if !strings.Contains(errMsg, "breaker") {
		t.Errorf("503 body = %q, want the breaker denial", errMsg)
	}

	// 5. /healthz reflects the open breaker.
	hresp, hbody := get(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", hresp.StatusCode)
	}
	var health struct {
		Status   string                  `json:"status"`
		Breakers []sched.BreakerSnapshot `json:"breakers"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Errorf("healthz status = %q, want degraded", health.Status)
	}
	if len(health.Breakers) != 1 || health.Breakers[0].Device != device || health.Breakers[0].State != "open" {
		t.Errorf("healthz breakers = %+v, want one open breaker for %s", health.Breakers, device)
	}

	// 6. /metrics exposes the resilience counters and breaker state.
	_, mbody := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`gpucmpd_degraded_total{mode="stale"} 1`,
		`gpucmpd_unavailable_total 1`,
		fmt.Sprintf("gpucmpd_breaker_state{device=%q} 2", device),
		"gpucmpd_breaker_trips_total 1",
		"gpucmpd_breaker_denials_total",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
