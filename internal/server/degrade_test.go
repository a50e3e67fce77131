package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
// time-valued benchmark (Sobel, sec). The ladder is retry, then 503; a
// job run before is served as a cache hit, not from a separate stale
// store.
func TestDegradationLadderStaleAnd503(t *testing.T) {
	degradedRunIsHitOr503(t, "Sobel")
}

// degradedRunIsHitOr503 checks that every /run of benchmark is exact or
// absent while the injector hangs some attempts, with the default cache
// and with CacheSize -1:
//   - a job run before is served with the very result bytes of its miss
//     reply: a hit from the cache, or a fresh miss without one;
//   - a never-run job whose attempt hangs is killed by the watchdog and
//     is a typed 503 with Retry-After: 5, counted once in /metrics;
//   - /healthz says "ok" with no breakers member, and /metrics has no
//     gpucmpd_breaker_ family: no failure of one job denies another.
func degradedRunIsHitOr503(t *testing.T, benchmark string) {
	const seed = 11
	const device = "GeForce GTX480"
	// A clean job takes under a tenth of this under -race; the hang
	// costs the test this long.
	const jobTimeout = time.Second
	schedule := fault.Schedule{HangRate: 0.5}
	type reply struct {
		Result json.RawMessage `json:"result"`
		Served string          `json:"served"`
		Error  string          `json:"error"`
		Code   string          `json:"code"`
	}
	mkJob := func(scale int) sched.Job {
		return sched.Job{Benchmark: benchmark, Device: device, Toolchain: "opencl", Config: bench.Config{Scale: scale}}
	}
	// Replay the injector's schedule: one job whose first two launches
	// are clean (without a cache it runs twice), and one whose first
	// launch hangs.
	probe := fault.New(seed, schedule)
	goodScale, hangScale := 0, 0
	for scale := 16; scale < 64 && (goodScale == 0 || hangScale == 0); scale++ {
		key := mkJob(scale).Key()
		if probe.Launch(key) != nil {
			if hangScale == 0 {
				hangScale = scale
			}
		} else if probe.Launch(key) == nil && goodScale == 0 {
			goodScale = scale
		}
	}
	if goodScale == 0 || hangScale == 0 {
		t.Fatalf("%s: seed %d yielded no usable schedule (good=%d hang=%d)", benchmark, seed, goodScale, hangScale)
	}

	for _, cacheSize := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			s := sched.New(sched.Options{
				Workers:    1,
				CacheSize:  cacheSize,
				JobTimeout: jobTimeout,
				Injector:   fault.New(seed, schedule),
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

			resp, live := send(mkJob(goodScale))
			if resp.StatusCode != http.StatusOK || live.Served != "miss" || len(live.Result) == 0 {
				t.Fatalf("live run: status %d, served %q, error %q", resp.StatusCode, live.Served, live.Error)
			}

			// The never-run job hangs until the watchdog kills it.
			resp, absent := send(mkJob(hangScale))
			if resp.StatusCode != http.StatusServiceUnavailable || absent.Code != codeUnavailable {
				t.Fatalf("hung job: status %d, code %q, error %q: want a 503 %s", resp.StatusCode, absent.Code, absent.Error, codeUnavailable)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "5" {
				t.Errorf("hung job: Retry-After = %q, want 5", ra)
			}

			// The job run before: a hit if it is cached, else a fresh miss,
			// with the same result bytes either way.
			resp, again := send(mkJob(goodScale))
			wantServed := "hit"
			if cacheSize < 0 {
				wantServed = "miss"
			}
			if resp.StatusCode != http.StatusOK || again.Served != wantServed {
				t.Fatalf("repeat: status %d, served %q, error %q; want a 200 %s", resp.StatusCode, again.Served, again.Error, wantServed)
			}
			if !bytes.Equal(again.Result, live.Result) {
				t.Errorf("repeat result differs from the miss reply's:\n got %s\nwant %s", again.Result, live.Result)
			}

			_, hbody := get(t, ts.URL+"/healthz")
			var health map[string]json.RawMessage
			if err := json.Unmarshal(hbody, &health); err != nil {
				t.Fatal(err)
			}
			if string(health["status"]) != `"ok"` {
				t.Errorf("/healthz = %s, want status ok", hbody)
			}
			if _, ok := health["breakers"]; ok {
				t.Errorf("/healthz = %s, want no breakers member", hbody)
			}

			_, mbody := get(t, ts.URL+"/metrics")
			if !strings.Contains(string(mbody), "gpucmpd_unavailable_total 1\n") {
				t.Error("/metrics: want gpucmpd_unavailable_total 1")
			}
			for _, gone := range []string{"gpucmpd_breaker_", "gpucmpd_degraded_total"} {
				if strings.Contains(string(mbody), gone) {
					t.Errorf("/metrics still has %s", gone)
				}
			}
		})
	}
}
