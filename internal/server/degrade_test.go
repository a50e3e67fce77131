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

// TestDegradedRateMetricIsExactOrAbsent runs degradedRunIsHitOr503 on a
// rate-valued benchmark (Reduce, GB/sec).
func TestDegradedRateMetricIsExactOrAbsent(t *testing.T) {
	degradedRunIsHitOr503(t, "Reduce")
}

// TestDegradationLadderStaleAnd503 runs degradedRunIsHitOr503 on a
// time-valued benchmark (Sobel, sec). The ladder is retry, breaker and
// 503; a job run before the trip is served as a cache hit, not from a
// separate stale store.
func TestDegradationLadderStaleAnd503(t *testing.T) {
	degradedRunIsHitOr503(t, "Sobel")
}

// degradedRunIsHitOr503 opens a device's circuit breaker and checks that
// every /run of benchmark is then exact or absent, with the default cache
// and with CacheSize -1:
//   - with the result cache, a job run before the trip is a hit with the
//     very result bytes of its miss reply: Do reads the cache before the
//     breaker is asked;
//   - without it, the same job is a typed 503 with Retry-After;
//   - a job never run is a typed 503 whose Retry-After is the breaker's
//     cool-down, while /healthz says "degraded" with the open breaker and
//     /metrics counts the 503s.
func degradedRunIsHitOr503(t *testing.T, benchmark string) {
	const seed = 11
	const device = "GeForce GTX480"
	schedule := fault.Schedule{TransientRate: 0.5}
	type reply struct {
		Result json.RawMessage `json:"result"`
		Served string          `json:"served"`
		Error  string          `json:"error"`
		Code   string          `json:"code"`
	}
	mkJob := func(scale int) sched.Job {
		return sched.Job{Benchmark: benchmark, Device: device, Toolchain: "opencl", Config: bench.Config{Scale: scale}}
	}
	// Replay the injector's schedule: one job whose first launch is
	// clean, and two whose first launch faults (they trip the breaker).
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
		t.Fatalf("%s: seed %d yielded no usable schedule (good=%d bad=%v)", benchmark, seed, goodScale, badScales)
	}

	for _, cacheSize := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			s := sched.New(sched.Options{
				Workers:     1,
				CacheSize:   cacheSize,
				MaxAttempts: 1,
				Breaker:     sched.BreakerConfig{FailureThreshold: 2, CoolDown: time.Hour},
				Injector:    fault.New(seed, schedule),
			})
			t.Cleanup(s.Close)
			ts := httptest.NewServer(New(s).Handler())
			t.Cleanup(ts.Close)
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
				return resp, r
			}
			// unavailable checks a typed 503 whose Retry-After is the
			// breaker's hour-long cool-down, not the 5 s default.
			unavailable := func(what string, resp *http.Response, r reply) {
				t.Helper()
				if resp.StatusCode != http.StatusServiceUnavailable || r.Code != codeUnavailable || !strings.Contains(r.Error, "breaker") {
					t.Fatalf("%s: status %d, code %q, error %q: want a 503 %s naming the breaker", what, resp.StatusCode, r.Code, r.Error, codeUnavailable)
				}
				if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 3000 || ra > 3600 {
					t.Errorf("%s: Retry-After = %q, want the breaker's cool-down", what, resp.Header.Get("Retry-After"))
				}
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

			// The job run before the trip: a hit if it is cached, else
			// absent.
			resp, again := send(mkJob(goodScale))
			want503 := 1
			if cacheSize < 0 {
				unavailable("uncached repeat", resp, again)
				want503 = 2
			} else {
				if resp.StatusCode != http.StatusOK || again.Served != "hit" {
					t.Fatalf("cached repeat: status %d, served %q, want a 200 hit", resp.StatusCode, again.Served)
				}
				if !bytes.Equal(again.Result, live.Result) {
					t.Errorf("hit result differs from the miss reply's:\n got %s\nwant %s", again.Result, live.Result)
				}
			}

			resp, absent := send(mkJob(99))
			unavailable("never-run job", resp, absent)

			_, hbody := get(t, ts.URL+"/healthz")
			var health struct {
				Status   string                  `json:"status"`
				Breakers []sched.BreakerSnapshot `json:"breakers"`
			}
			if err := json.Unmarshal(hbody, &health); err != nil {
				t.Fatal(err)
			}
			if health.Status != "degraded" || len(health.Breakers) != 1 ||
				health.Breakers[0].Device != device || health.Breakers[0].State != "open" {
				t.Errorf("/healthz = %s, want degraded with one open breaker for %s", hbody, device)
			}

			_, mbody := get(t, ts.URL+"/metrics")
			for _, want := range []string{
				fmt.Sprintf("gpucmpd_unavailable_total %d\n", want503),
				fmt.Sprintf("gpucmpd_breaker_state{device=%q} 2\n", device),
				"gpucmpd_breaker_trips_total 1\n",
				"gpucmpd_breaker_denials_total",
			} {
				if !strings.Contains(string(mbody), want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			if strings.Contains(string(mbody), "gpucmpd_degraded_total") {
				t.Error("/metrics still has gpucmpd_degraded_total")
			}
		})
	}
}
