package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// startWorker spins up a real gpucmpd worker (scheduler + HTTP server)
// with an optional fault injector, on the wall clock.
func startWorker(t *testing.T, inj *fault.Injector) (*httptest.Server, *server.Server) {
	t.Helper()
	return startWorkerOn(t, inj, nil)
}

// startWorkerOn is startWorker with the scheduler on clk (nil = the wall
// clock), so an injected stall lasts until the test advances clk.
func startWorkerOn(t *testing.T, inj *fault.Injector, clk clock.Clock) (*httptest.Server, *server.Server) {
	t.Helper()
	s := sched.New(sched.Options{Workers: 4, Injector: inj, Clock: clk})
	t.Cleanup(s.Close)
	srv := server.New(s)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// startCoordinator serves a coordinator over cfg. Unless cfg brings its
// own clock, the coordinator runs on a Fake that never moves: no probe
// round and no hedge ever fires, so membership stays static and every
// request is answered by the shard it routes to.
func startCoordinator(t *testing.T, cfg Config) (*httptest.Server, *Coordinator) {
	t.Helper()
	if cfg.clock == nil {
		cfg.clock = clock.NewFake(epoch)
	}
	c := New(cfg)
	c.Start()
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		// Cut the clients off first, so that requests a failed test left
		// held by a stall on its Fake are cancelled, not waited for.
		ts.CloseClientConnections()
		ts.Close()
	})
	return ts, c
}

func runBody(benchmark string, scale int) string {
	return fmt.Sprintf(`{"benchmark":%q,"device":"GeForce GTX480","toolchain":"opencl","config":{"scale":%d}}`, benchmark, scale)
}

// post fires one request and returns status, body, and the X-Shard
// header; a transport error fails the test, so off the test goroutine
// call tryPost.
func post(t *testing.T, url, body string) (int, []byte, string) {
	t.Helper()
	status, b, shard, err := tryPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, b, shard
}

// tryPost fires one request and returns status, body, the X-Shard header and
// any transport error.
func tryPost(url, body string) (int, []byte, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, "", fmt.Errorf("POST %s: %w", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("X-Shard"), err
}

// typedRefusal reports whether a non-2xx response carries a machine code
// — the fleet contract that no refusal is ever an untyped 5xx.
func typedRefusal(body []byte) bool {
	var e struct {
		Code string `json:"code"`
	}
	return json.Unmarshal(body, &e) == nil && e.Code != ""
}

// TestClusterRoutingIsSticky: the same content key always lands on the
// same shard (so worker caches stay hot), and the repeat is served from
// that shard's cache.
func TestClusterRoutingIsSticky(t *testing.T) {
	w1, _ := startWorker(t, nil)
	w2, _ := startWorker(t, nil)
	w3, _ := startWorker(t, nil)
	cts, _ := startCoordinator(t, Config{
		Workers: []string{w1.URL, w2.URL, w3.URL},
	})

	body := runBody("Reduce", 32)
	_, _, firstShard := post(t, cts.URL+"/run", body)
	if firstShard == "" {
		t.Fatal("response missing X-Shard")
	}
	for i := 0; i < 5; i++ {
		status, respBody, shard := post(t, cts.URL+"/run", body)
		if status != http.StatusOK {
			t.Fatalf("repeat %d: status %d: %s", i, status, respBody)
		}
		if shard != firstShard {
			t.Fatalf("repeat %d routed to %s, first went to %s", i, shard, firstShard)
		}
		var out struct {
			Served string `json:"served"`
		}
		if err := json.Unmarshal(respBody, &out); err != nil {
			t.Fatal(err)
		}
		if i > 0 && out.Served != "hit" {
			t.Errorf("repeat %d served=%q, want cache hit on the owning shard", i, out.Served)
		}
	}
}

// TestClusterDedupJoinsConcurrentIdentical: identical concurrent
// requests share one upstream call (coordinator singleflight) on top of
// the owning worker's own dedup.
func TestClusterDedupJoinsConcurrentIdentical(t *testing.T) {
	// Every launch stalls on the clock the worker and the coordinator
	// share, so the upstream call stays in flight until the test moves
	// the clock.
	clk := newSimClock()
	inj := fault.New(3, fault.Schedule{SlowRate: 1.0, SlowDelay: 150 * time.Millisecond})
	w, _ := startWorkerOn(t, inj, clk)
	cts, coord := startCoordinator(t, Config{
		Workers: []string{w.URL},
		clock:   clk,
	})

	body := runBody("Scan", 48)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, b, _, err := tryPost(cts.URL+"/run", body)
			switch {
			case err != nil:
				t.Error(err)
			case status != http.StatusOK:
				t.Errorf("status %d: %s", status, b)
			}
		}()
	}
	// Release the stall once the other seven have joined the call.
	clk.wait(func() bool { return clk.has(stallTimer) })
	waitFor(t, "7 requests joining the call in flight", func() bool { return coord.Metrics().DedupJoined == 7 })
	clk.advanceTo(clk.Now().Add(150 * time.Millisecond))
	wg.Wait()
	if snap := coord.Metrics(); snap.DedupJoined == 0 {
		t.Error("8 identical concurrent requests never joined an in-flight proxy call")
	}
}

// TestClusterShedsTyped: above MaxInFlight the coordinator refuses with
// 503 + Retry-After and a machine-readable code — never a hang, never an
// untyped error.
func TestClusterShedsTyped(t *testing.T) {
	clk := newSimClock()
	inj := fault.New(5, fault.Schedule{SlowRate: 1.0, SlowDelay: 300 * time.Millisecond})
	w, _ := startWorkerOn(t, inj, clk)
	cts, coord := startCoordinator(t, Config{
		Workers:     []string{w.URL},
		MaxInFlight: 1,
		clock:       clk,
	})

	var mu sync.Mutex
	var shed, served int
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(cts.URL+"/run", "application/json",
				strings.NewReader(runBody("Sobel", 32+i))) // distinct keys: no dedup escape hatch
			if err != nil {
				t.Errorf("transport error: %v", err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case resp.StatusCode == http.StatusOK:
				served++
			case resp.StatusCode == http.StatusServiceUnavailable && typedRefusal(b):
				if resp.Header.Get("Retry-After") == "" {
					t.Error("shed response missing Retry-After")
				}
				shed++
			default:
				t.Errorf("status %d body %s, want 200 or typed 503", resp.StatusCode, b)
			}
		}(i)
	}
	// The admitted request holds the one in-flight slot in its stall;
	// release it once the other nine have been shed.
	clk.wait(func() bool { return clk.has(stallTimer) })
	waitFor(t, "9 requests shed", func() bool { return coord.Metrics().Shed == 9 })
	clk.advanceTo(clk.Now().Add(300 * time.Millisecond))
	wg.Wait()
	if shed == 0 {
		t.Errorf("10 concurrent requests against MaxInFlight=1 shed none (served %d)", served)
	}
	if served == 0 {
		t.Error("shedding refused everything; at least one request must be admitted")
	}
	if snap := coord.Metrics(); snap.Shed == 0 {
		t.Error("shed counter not incremented")
	}
}

// TestClusterTenantQuota: the admission quota refuses over-rate tenants
// with 429 + Retry-After while other tenants keep flowing.
func TestClusterTenantQuota(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, coord := startCoordinator(t, Config{
		Workers: []string{w.URL},
		Quota:   sched.QuotaConfig{Rate: 0.001, Burst: 1},
	})

	do := func(tenant string) (int, []byte) {
		req, _ := http.NewRequest(http.MethodPost, cts.URL+"/run", strings.NewReader(runBody("Reduce", 32)))
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 missing Retry-After")
		}
		return resp.StatusCode, b
	}

	if status, b := do("alice"); status != http.StatusOK {
		t.Fatalf("first request: %d %s", status, b)
	}
	if status, b := do("alice"); status != http.StatusTooManyRequests || !typedRefusal(b) {
		t.Fatalf("second request: %d %s, want typed 429", status, b)
	}
	if status, b := do("bob"); status != http.StatusOK {
		t.Fatalf("other tenant collateral damage: %d %s", status, b)
	}
	if snap := coord.Metrics(); snap.QuotaDenied == 0 {
		t.Error("quota_denied counter not incremented")
	}
}

// TestCoordinatorDrain: SetReady flips /healthz/ready and new requests
// are refused typed while draining.
func TestCoordinatorDrain(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, coord := startCoordinator(t, Config{Workers: []string{w.URL}})

	resp, err := http.Get(cts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready before drain = %d", resp.StatusCode)
	}

	coord.SetReady(false)
	resp, err = http.Get(cts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ready during drain = %d, want 503", resp.StatusCode)
	}

	status, b, _ := post(t, cts.URL+"/run", runBody("Reduce", 32))
	if status != http.StatusServiceUnavailable || !typedRefusal(b) {
		t.Fatalf("draining coordinator answered %d %s, want typed 503", status, b)
	}
}

// TestCoordinatorMetricsEndpoint: both exposition formats serve the
// fleet counters.
func TestCoordinatorMetricsEndpoint(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, _ := startCoordinator(t, Config{Workers: []string{w.URL}})

	if status, _, _ := post(t, cts.URL+"/run", runBody("Reduce", 32)); status != http.StatusOK {
		t.Fatalf("seed request failed: %d", status)
	}

	resp, err := http.Get(cts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Routed == 0 || snap.RingMembers != 1 || len(snap.Shards) != 1 {
		t.Errorf("snapshot = routed %d, members %d, shards %d", snap.Routed, snap.RingMembers, len(snap.Shards))
	}

	resp2, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	prom, _ := io.ReadAll(resp2.Body)
	for _, metric := range []string{
		"gpucmpd_coord_routed_total",
		"gpucmpd_coord_ring_members 1",
		"gpucmpd_coord_shard_requests_total",
		"gpucmpd_coord_queue_depth_bucket",
	} {
		if !strings.Contains(string(prom), metric) {
			t.Errorf("prometheus output missing %q", metric)
		}
	}
}

// TestCoordinatorRepliesDeclareLength: a coordinator reply is a body it
// already holds in full, so it goes out with a Content-Length, not
// chunked, even when it is over net/http's 2 KB pre-chunking buffer (the
// FFT reply is; fig1's is not).
func TestCoordinatorRepliesDeclareLength(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, _ := startCoordinator(t, Config{Workers: []string{w.URL}})
	for _, req := range []struct {
		method, path, body string
		minBytes           int
	}{
		{http.MethodPost, "/run", runBody("FFT", 16), 2049},
		{http.MethodGet, "/figures/fig1?scale=64", "", 1},
	} {
		hr, err := http.NewRequest(req.method, cts.URL+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) < req.minBytes {
			t.Fatalf("%s: status %d, %d bytes; want a 200 of at least %d", req.path, resp.StatusCode, len(body), req.minBytes)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for %d bytes; want the length declared",
				req.path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestOversizedReplyIsTyped502: a worker reply over the proxy limit is a
// typed 502, not a truncated body. It is neither failed over nor counted
// against the shard, since every shard would give the same reply.
func TestOversizedReplyIsTyped502(t *testing.T) {
	var calls atomic.Int32
	oversized := func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Length", fmt.Sprint(maxProxyBody+1))
		w.Write([]byte(`{"result":`)) //nolint:errcheck
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	var workers []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.HandlerFunc(oversized))
		t.Cleanup(ts.Close)
		workers = append(workers, ts.URL)
	}
	cts, c := startCoordinator(t, Config{Workers: workers})
	status, body, _ := post(t, cts.URL+"/run", runBody("Reduce", 16))
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &e); err != nil || status != http.StatusBadGateway || e.Code != codeReplyTooLarge {
		t.Fatalf("status %d, body %s; want 502 %q", status, body, codeReplyTooLarge)
	}
	snap := c.Metrics()
	if calls.Load() != 1 || snap.Failovers != 0 {
		t.Errorf("%d worker calls, %d failovers; want 1 and 0", calls.Load(), snap.Failovers)
	}
	for _, sh := range snap.Shards {
		if sh.Errors != 0 || sh.Breaker != "closed" {
			t.Errorf("shard %s: %d errors, breaker %s; want 0 and closed", sh.Shard, sh.Errors, sh.Breaker)
		}
	}
}
