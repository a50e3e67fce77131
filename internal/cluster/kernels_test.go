package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpucmp/internal/fuzz"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
	"gpucmp/internal/submit"
)

// kernelsBody is a well-formed POST /kernels submission: a generated
// program in the fuzz-corpus encoding.
func kernelsBody(t *testing.T, seed uint64) []byte {
	t.Helper()
	body, err := fuzz.Encode(fuzz.Generate(seed, fuzz.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postKernels sends one submission as tenant and returns status and body.
func postKernels(t *testing.T, url, tenant string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/kernels", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Error(err)
	}
	return resp.StatusCode, b.Bytes()
}

// gatedWorker is a real worker whose /kernels requests wait at a gate:
// arrived counts them, and each passes once the gate is closed.
type gatedWorker struct {
	url     string
	arrived atomic.Int32
	gate    chan struct{}
	once    sync.Once
}

// release opens the gate; a test defers it so that a failure cannot leave
// requests waiting at the gate while the servers shut down.
func (g *gatedWorker) release() { g.once.Do(func() { close(g.gate) }) }

func startGatedWorker(t *testing.T) *gatedWorker {
	t.Helper()
	s := sched.New(sched.Options{Workers: 2})
	t.Cleanup(s.Close)
	h := server.New(s).Handler()
	g := &gatedWorker{gate: make(chan struct{})}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/kernels" {
			g.arrived.Add(1)
			<-g.gate
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	g.url = ts.URL
	return g
}

// waitFor polls cond until it holds or a generous deadline passes. It and
// await are where this package's tests still read the wall clock: they
// wait for another goroutine to reach a state that sends no signal (a
// joiner counted on a call, a request held at a gate), and the deadline
// only turns a hang into a failure that names what never happened.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// submitted is the part of a /kernels reply that is a function of the
// submission: its content key and its report.
type submitted struct {
	Key    string          `json:"key"`
	Report json.RawMessage `json:"report"`
}

func decodeSubmitted(t *testing.T, body []byte) submitted {
	t.Helper()
	var s submitted
	if err := json.Unmarshal(body, &s); err != nil || s.Key == "" || len(s.Report) == 0 {
		t.Fatalf("not a /kernels report (%v): %.300s", err, body)
	}
	return s
}

// TestCoordinatorKernelsForwardsUnparsedBody: the coordinator does not
// decode a submission, so a body that is not JSON reaches the worker and
// the worker's typed refusal comes back byte for byte.
func TestCoordinatorKernelsForwardsUnparsedBody(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, coord := startCoordinator(t, Config{Workers: []string{w.URL}})

	body := []byte(`{"grid": 2, "block": this is not JSON`)
	status, got := postKernels(t, cts.URL, "alice", body)
	wantStatus, want := postKernels(t, w.URL, "alice", body)
	if status != http.StatusBadRequest || status != wantStatus {
		t.Fatalf("status %d through the coordinator, %d from the worker, want 400 from both", status, wantStatus)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("coordinator reply differs from the worker's:\n got %s\nwant %s", got, want)
	}
	var e struct{ Classification, Code string }
	if err := json.Unmarshal(got, &e); err != nil || e.Classification != server.ClassGauntletReject || e.Code != submit.CodeBadJSON {
		t.Fatalf("reply %s, want a %s refusal with code %s", got, server.ClassGauntletReject, submit.CodeBadJSON)
	}
	if snap := coord.Metrics(); snap.Routed != 1 {
		t.Errorf("routed %d requests, want the one forwarded", snap.Routed)
	}
}

// TestCoordinatorKernelsDedupsIdenticalBodies: two byte-identical
// submissions in flight together from one tenant cost one upstream call.
func TestCoordinatorKernelsDedupsIdenticalBodies(t *testing.T) {
	g := startGatedWorker(t)
	cts, coord := startCoordinator(t, Config{Workers: []string{g.url}})
	defer g.release()

	body := kernelsBody(t, 1)
	var replies [2][]byte
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, b := postKernels(t, cts.URL, "alice", body)
			if status != http.StatusOK {
				t.Errorf("status %d: %.300s", status, b)
			}
			replies[i] = b
		}()
	}
	waitFor(t, "the second submission to join the first", func() bool { return coord.Metrics().DedupJoined == 1 })
	g.release()
	wg.Wait()
	if n := g.arrived.Load(); n != 1 {
		t.Errorf("%d upstream calls for two identical in-flight submissions, want 1", n)
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Errorf("joined submissions got different replies:\n%s\n%s", replies[0], replies[1])
	}
}

// TestCoordinatorKernelsKeepsDifferentBodiesApart: two different bodies in
// flight together from one tenant each get the reply to their own program.
func TestCoordinatorKernelsKeepsDifferentBodiesApart(t *testing.T) {
	g := startGatedWorker(t)
	cts, coord := startCoordinator(t, Config{Workers: []string{g.url}})
	defer g.release()

	bodies := [2][]byte{kernelsBody(t, 1), kernelsBody(t, 2)}
	var replies [2][]byte
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, b := postKernels(t, cts.URL, "alice", body)
			if status != http.StatusOK {
				t.Errorf("submission %d: status %d: %.300s", i, status, b)
			}
			replies[i] = b
		}()
	}
	waitFor(t, "both submissions to reach the worker", func() bool { return g.arrived.Load() == 2 })
	g.release()
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, body := range bodies {
		sub, err := submit.Parse(body, submit.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeSubmitted(t, replies[i]).Key; got != sub.ContentKey() {
			t.Errorf("submission %d got the reply for key %s, want %s", i, got, sub.ContentKey())
		}
	}
	if n := coord.Metrics().DedupJoined; n != 0 {
		t.Errorf("DedupJoined = %d for two different bodies, want 0", n)
	}
}

// TestCoordinatorKernelsReformattedBody: a whitespace-reformatted copy of a
// submission may route to another shard than the original, but its report
// and key are the original's.
func TestCoordinatorKernelsReformattedBody(t *testing.T) {
	w1, _ := startWorker(t, nil)
	w2, _ := startWorker(t, nil)
	cts, _ := startCoordinator(t, Config{Workers: []string{w1.URL, w2.URL}})

	body := kernelsBody(t, 3)
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact.Bytes(), body) || !strings.Contains(string(body), "\n") {
		t.Fatal("the compacted copy is not a reformatting of the body")
	}
	status, orig := postKernels(t, cts.URL, "alice", body)
	if status != http.StatusOK {
		t.Fatalf("original: status %d: %.300s", status, orig)
	}
	status, again := postKernels(t, cts.URL, "alice", compact.Bytes())
	if status != http.StatusOK {
		t.Fatalf("reformatted: status %d: %.300s", status, again)
	}
	a, b := decodeSubmitted(t, orig), decodeSubmitted(t, again)
	if a.Key != b.Key {
		t.Errorf("key %s for the reformatted copy, want the original's %s", b.Key, a.Key)
	}
	if !bytes.Equal(a.Report, b.Report) {
		t.Errorf("reformatted copy's report differs from the original's:\n%s\n%s", b.Report, a.Report)
	}
}
