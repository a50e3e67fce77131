package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpucmp/internal/bench"
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

// TestDegradedRateMetricIsExactOrAbsent opens a breaker on a rate-valued
// benchmark (Reduce, GB/sec) and checks both outcomes of the ladder: a
// job run before is served stale with the very result bytes of its live
// reply, and a job never run gets a typed 503 with Retry-After. No reply
// is an estimate: a degraded answer is exact or absent.
func TestDegradedRateMetricIsExactOrAbsent(t *testing.T) {
	const seed = 11
	schedule := fault.Schedule{TransientRate: 0.5}
	device := "GeForce GTX480"
	mkJob := func(scale int) sched.Job {
		return sched.Job{Benchmark: "Reduce", Device: device, Toolchain: "opencl", Config: bench.Config{Scale: scale}}
	}
	// Replay the injector's schedule: one job whose first launch is clean,
	// and two whose first launch faults (they trip the breaker).
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
	s := sched.New(sched.Options{
		Workers:   1,
		CacheSize: -1, // no result cache: a repeat takes the live path
		Retry:     sched.RetryPolicy{MaxAttempts: 1},
		Breaker:   sched.BreakerConfig{FailureThreshold: 2, CoolDown: time.Hour},
		Injector:  fault.New(seed, schedule),
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(New(s).Handler())
	t.Cleanup(ts.Close)

	type reply struct {
		Result       json.RawMessage `json:"result"`
		Served       string          `json:"served"`
		DegradedMode string          `json:"degraded_mode"`
		Code         string          `json:"code"`
	}
	send := func(job sched.Job) (*http.Response, reply) {
		t.Helper()
		resp, raw := postRaw(t, ts.URL, job)
		if resp == nil {
			t.FailNow()
		}
		var r reply
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("reply %q: %v", raw, err)
		}
		if r.DegradedMode == "estimate" {
			t.Errorf("an estimate was served: %s", raw)
		}
		return resp, r
	}

	resp, live := send(mkJob(goodScale))
	if resp.StatusCode != http.StatusOK || live.Served != "miss" || len(live.Result) == 0 {
		t.Fatalf("live run: status %d, served %q", resp.StatusCode, live.Served)
	}
	for _, scale := range badScales {
		if resp, _ := send(mkJob(scale)); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("faulting job scale %d: status %d, want 500", scale, resp.StatusCode)
		}
	}
	if b := s.Breakers(); len(b) != 1 || b[0].State != sched.BreakerOpen.String() {
		t.Fatalf("breakers = %+v, want %s open", b, device)
	}

	// With a stale entry: the live run's result, byte for byte.
	resp, stale := send(mkJob(goodScale))
	if resp.StatusCode != http.StatusOK || stale.Served != "degraded" || stale.DegradedMode != "stale" {
		t.Fatalf("stale rung: status %d, served %q, mode %q", resp.StatusCode, stale.Served, stale.DegradedMode)
	}
	if !bytes.Equal(stale.Result, live.Result) {
		t.Errorf("stale result differs from the live run's:\n got %s\nwant %s", stale.Result, live.Result)
	}

	// Without one: a typed 503 that says when to come back.
	resp, absent := send(mkJob(99))
	if resp.StatusCode != http.StatusServiceUnavailable || absent.Code != codeUnavailable {
		t.Fatalf("never-run job: status %d, code %q: want 503 %s", resp.StatusCode, absent.Code, codeUnavailable)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra <= 0 {
		t.Errorf("Retry-After = %q, want a positive number of seconds", resp.Header.Get("Retry-After"))
	}
}

// TestDegradationLadderStaleAnd503 drives the full ladder on a time-valued
// benchmark (TestDegradedRateMetricIsExactOrAbsent drives a rate-valued
// one): a breaker trip must route a previously-seen job to its stale
// result and a never-seen job to 503 + Retry-After, while /healthz and
// /metrics reflect the open breaker.
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

	// 3. The previously-seen job is denied by the breaker and served stale
	// with the Degraded marker.
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
