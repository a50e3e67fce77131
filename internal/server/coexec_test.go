package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
)

func postCoexec(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/coexec", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestCoexecEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := postCoexec(t, ts.URL,
		`{"workload":"vecadd","size":16,"devices":["GeForce GTX480","Intel Core i7 920"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out coexecResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Report == nil || out.Report.Shards < 2 || out.Degraded {
		t.Fatalf("implausible report: %s", body)
	}
	if len(out.OutputChecksum) != 16 {
		t.Fatalf("checksum %q not 16 hex chars", out.OutputChecksum)
	}
	if out.Served != "miss" {
		t.Errorf("first request served %q, want miss", out.Served)
	}

	// Same canonical request: cache hit with the identical checksum.
	resp2, body2 := postCoexec(t, ts.URL,
		`{"workload":"vecadd","size":16,"devices":["GeForce GTX480","Intel Core i7 920"]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d", resp2.StatusCode)
	}
	var out2 coexecResponse
	if err := json.Unmarshal(body2, &out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached || out2.Served != "hit" {
		t.Errorf("second request served %q cached=%v, want cached hit", out2.Served, out2.Cached)
	}
	if out2.OutputChecksum != out.OutputChecksum {
		t.Errorf("checksum changed across cache: %q vs %q", out2.OutputChecksum, out.OutputChecksum)
	}
}

// TestKernelsRefusesCoexecTenant: /coexec runs under the tenant "coexec",
// so a /kernels client naming itself that would land in the /coexec runs'
// cache and metrics rows. It is refused, and the /coexec result stays the
// only entry in that cache.
func TestKernelsRefusesCoexecTenant(t *testing.T) {
	ts, s := newTestServer(t)
	if resp, body := postCoexec(t, ts.URL,
		`{"workload":"vecadd","size":16,"devices":["GeForce GTX480","Intel Core i7 920"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("/coexec status = %d: %s", resp.StatusCode, body)
	}
	resp, kr := postKernel(t, ts.URL, "coexec", validSubmission(t))
	if resp.StatusCode != http.StatusBadRequest || kr.Code != codeBadTenant {
		t.Errorf("/kernels as coexec: status %d code %q, want 400 %s", resp.StatusCode, kr.Code, codeBadTenant)
	}
	if n := s.TenantCacheLen("coexec"); n != 1 {
		t.Errorf("coexec tenant cache holds %d entries, want 1 (the /coexec run)", n)
	}
}

// TestCoexecKillDegradedMarkers: a request that kills a device mid-split
// is answered with the degraded markers, the same output bits as a clean
// run, and the same report from a second, fresh server.
func TestCoexecKillDegradedMarkers(t *testing.T) {
	const killBody = `{"workload":"mxm","size":96,"shards_per_device":8,
		  "devices":["GeForce GTX480","GeForce GTX280"],
		  "kill":{"GeForce GTX280":1}}`
	ts, _ := newTestServer(t)
	resp, body := postCoexec(t, ts.URL, killBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var out coexecResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradedMode != "device-lost" || out.DegradedCause == "" {
		t.Fatalf("degraded markers missing: %s", body)
	}
	if len(out.Report.Lost) != 1 || out.Report.Lost[0] != "GeForce GTX280" {
		t.Fatalf("lost device not named: %s", body)
	}

	// The kill run and a clean run of the same split must produce the same
	// bits — kill changes the schedule, never the answer.
	_, cleanBody := postCoexec(t, ts.URL,
		`{"workload":"mxm","size":96,"shards_per_device":8,
		  "devices":["GeForce GTX480","GeForce GTX280"]}`)
	var clean coexecResponse
	if err := json.Unmarshal(cleanBody, &clean); err != nil {
		t.Fatal(err)
	}
	if clean.OutputChecksum != out.OutputChecksum {
		t.Fatalf("mid-run kill changed output bits: %q vs %q", out.OutputChecksum, clean.OutputChecksum)
	}

	// The schedule is simulated, so a fresh server runs the same split.
	ts2, _ := newTestServer(t)
	if _, body2 := postCoexec(t, ts2.URL, killBody); !bytes.Equal(body2, body) {
		t.Fatalf("a second server's reply differs:\n%s\n%s", body2, body)
	}

	// The per-device shard counters made it to /metrics.
	mresp, mbody := get(t, ts.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", mresp.StatusCode)
	}
	for _, want := range []string{
		"gpucmpd_coexec_shards_total",
		`gpucmpd_coexec_device_lost{device="1:GeForce GTX280"} 1`,
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestCoexecBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad workload", `{"workload":"nope","size":8,"devices":["GeForce GTX480"]}`, http.StatusBadRequest, codeBadRequest},
		{"bad device", `{"workload":"vecadd","size":8,"devices":["GTX 9090"]}`, http.StatusBadRequest, codeUnknownDevice},
		{"no devices", `{"workload":"vecadd","size":8,"devices":[]}`, http.StatusBadRequest, codeBadRequest},
		{"size too big", `{"workload":"vecadd","size":100000,"devices":["GeForce GTX480"]}`, http.StatusBadRequest, codeBadRequest},
		{"kill unknown device", `{"workload":"vecadd","size":8,"devices":["GeForce GTX480"],"kill":{"Intel Core i7 920":1}}`, http.StatusBadRequest, codeBadRequest},
		{"unknown field", `{"workload":"vecadd","size":8,"devices":["GeForce GTX480"],"frobnicate":1}`, http.StatusBadRequest, codeBadJSON},
	} {
		resp, body := postCoexec(t, ts.URL, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Errorf("%s: non-JSON error body %s", tc.name, body)
			continue
		}
		if eb.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, eb.Code, tc.code)
		}
	}

	resp, _ := get(t, ts.URL+"/coexec")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /coexec status = %d, want 405", resp.StatusCode)
	}
}

// newFaultyServer is a server whose /coexec runs draw faults from seed
// and sch.
func newFaultyServer(t *testing.T, seed uint64, sch fault.Schedule) *httptest.Server {
	t.Helper()
	s := sched.New(sched.Options{Workers: 2})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(New(s, WithCoexecFaults(seed, sch)).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestCoexecTypedFaultFailure: a server whose fault schedule makes every
// shard launch fail permanently must answer with the typed coexec-failed
// code, not a generic internal error.
func TestCoexecTypedFaultFailure(t *testing.T) {
	ts := newFaultyServer(t, 7, fault.Schedule{TransferRate: 1.0}) // uncapped: never recovers

	resp, body := postCoexec(t, ts.URL,
		`{"workload":"vecadd","size":8,"devices":["GeForce GTX480"]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != codeCoexecFailed {
		t.Fatalf("code %q, want %q: %s", eb.Code, codeCoexecFailed, body)
	}
}

// TestCoexecFaultsPerRun: every /coexec run draws its faults afresh, so a
// request's reply does not depend on what the server ran before it. X and
// Y differ in size but share shard names, so a shared injector's attempt
// counters would carry X's draws into Y's.
func TestCoexecFaultsPerRun(t *testing.T) {
	sch := fault.Schedule{TransferRate: 0.3, MaxPerKey: 3}
	const (
		x = `{"workload":"vecadd","size":16,"devices":["GeForce GTX480","GeForce GTX280","Intel Core i7 920"]}`
		y = `{"workload":"vecadd","size":24,"devices":["GeForce GTX480","GeForce GTX280","Intel Core i7 920"]}`
	)
	a := newFaultyServer(t, 3, sch)
	if resp, body := postCoexec(t, a.URL, x); resp.StatusCode != http.StatusOK {
		t.Fatalf("X status = %d: %s", resp.StatusCode, body)
	}
	respA, yA := postCoexec(t, a.URL, y)
	respB, yB := postCoexec(t, newFaultyServer(t, 3, sch).URL, y)
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("Y status = %d and %d: %s %s", respA.StatusCode, respB.StatusCode, yA, yB)
	}
	if !bytes.Equal(yA, yB) {
		t.Fatalf("Y after X differs from Y alone:\n%s\n%s", yA, yB)
	}
	var out coexecResponse
	if err := json.Unmarshal(yA, &out); err != nil {
		t.Fatal(err)
	}
	if out.Report.Retries == 0 {
		t.Fatalf("the schedule injected no faults into Y: %s", yA)
	}
}

// TestCoexecAbandonedNeverCached: a request whose client goes away mid-run
// is abandoned by the scheduler (typed ErrAbandoned) and its result must
// NOT be cached — the next identical request re-executes and succeeds.
func TestCoexecAbandonedNeverCached(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"workload":"mxm","size":128,"devices":["GeForce GTX480","GeForce GTX280"]}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/coexec",
		bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	cancel() // client walks away immediately; the run is abandoned
	<-done

	// The identical request must not be served from cache: an abandoned
	// execution never produces a cacheable value.
	resp, respBody := postCoexec(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d: %s", resp.StatusCode, respBody)
	}
	var out coexecResponse
	if err := json.Unmarshal(respBody, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatalf("abandoned run was cached: %s", respBody)
	}
	if out.Report == nil || out.Degraded {
		t.Fatalf("follow-up run wrong: %s", respBody)
	}
}
