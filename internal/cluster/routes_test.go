package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"gpucmp/internal/clock"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// send makes one request and returns its status and machine code ("" for
// a reply without one, as every 200 is).
func send(t *testing.T, method, url, tenant string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var e struct {
		Code string `json:"code"`
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	json.Unmarshal(raw, &e) //nolint:errcheck // /metrics is text: no code
	return resp.StatusCode, e.Code
}

// TestRouteWalk walks the endpoint table: every route's methods, one
// method it does not allow, unknown paths and a few refusals go to a
// worker and to a coordinator over that worker. Both must answer with the
// same status and machine code, and every refusal must carry a code.
func TestRouteWalk(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, _ := startCoordinator(t, Config{Workers: []string{w.URL}})

	// A request that succeeds on each route: its path and, for a POST, its
	// body. A route added to the table fails here until it has one.
	samples := map[string]struct {
		path string
		body []byte
	}{
		"/healthz":         {"/healthz", nil},
		"/healthz/live":    {"/healthz/live", nil},
		"/healthz/ready":   {"/healthz/ready", nil},
		"/metrics":         {"/metrics", nil},
		"/run":             {"/run", []byte(runBody("Reduce", 32))},
		"/coexec":          {"/coexec", []byte(`{"workload":"vecadd","size":16,"devices":["GeForce GTX480","Intel Core i7 920"]}`)},
		"/kernels":         {"/kernels", kernelsBody(t, 1)},
		"/devices":         {"/devices", nil},
		"/benchmarks":      {"/benchmarks", nil},
		"/compiler/passes": {"/compiler/passes", nil},
		"/figures/":        {"/figures/tableV", nil},
	}
	type request struct {
		method, path, tenant string
		body                 []byte
		status               int // what the worker must answer
	}
	var reqs []request
	for _, rt := range server.Routes() {
		s, ok := samples[rt.Path]
		if !ok {
			t.Errorf("route %s has no sample request", rt.Path)
			continue
		}
		for _, m := range rt.Methods {
			reqs = append(reqs, request{method: m, path: s.path, body: s.body, status: http.StatusOK})
		}
		wrong := http.MethodGet
		if slices.Contains(rt.Methods, wrong) {
			wrong = http.MethodPost
		}
		reqs = append(reqs, request{method: wrong, path: s.path, body: s.body, status: http.StatusMethodNotAllowed})
		// A bad X-Tenant is refused on every route but a Local one.
		badTenant := http.StatusBadRequest
		if rt.Key == server.Local {
			badTenant = http.StatusOK
		}
		reqs = append(reqs, request{method: rt.Methods[0], path: s.path, tenant: "no spaces", body: s.body, status: badTenant})
	}
	reqs = append(reqs,
		request{method: http.MethodGet, path: "/nope", status: http.StatusNotFound},
		request{method: http.MethodGet, path: "/", status: http.StatusNotFound},
		request{method: http.MethodGet, path: "/figures/nope", status: http.StatusNotFound},
		request{method: http.MethodPost, path: "/run", body: []byte(runBody("Nope", 32)), status: http.StatusBadRequest},
		request{method: http.MethodPost, path: "/run", body: []byte(`{"benchmark":"Reduce","device":"GeForce 9999","toolchain":"opencl"}`), status: http.StatusBadRequest},
		request{method: http.MethodPost, path: "/run", body: []byte(`{"benchmark":"Reduce","device":"Radeon HD5870","toolchain":"cuda"}`), status: http.StatusBadRequest},
		request{method: http.MethodPost, path: "/run", body: []byte("]]]"), status: http.StatusBadRequest},
		request{method: http.MethodPost, path: "/kernels", tenant: "coexec", body: kernelsBody(t, 1), status: http.StatusBadRequest},
	)
	for _, r := range reqs {
		ws, wc := send(t, r.method, w.URL+r.path, r.tenant, r.body)
		cs, cc := send(t, r.method, cts.URL+r.path, r.tenant, r.body)
		if ws != r.status || (ws >= 400 && wc == "") {
			t.Errorf("%s %s (tenant %q): worker %d %q, want a typed %d", r.method, r.path, r.tenant, ws, wc, r.status)
		}
		if cs != ws || cc != wc {
			t.Errorf("%s %s (tenant %q): worker %d %q, coordinator %d %q", r.method, r.path, r.tenant, ws, wc, cs, cc)
		}
	}
}

// TestCoordinatorRefusesReservedTenantBeforeQuota: X-Tenant coexec on a
// route that takes a tenant is refused before its quota is charged, so
// the coordinator's quota snapshot never names it.
func TestCoordinatorRefusesReservedTenantBeforeQuota(t *testing.T) {
	w, _ := startWorker(t, nil)
	cts, coord := startCoordinator(t, Config{
		Workers: []string{w.URL},
		Quota:   sched.QuotaConfig{Rate: 1000, Burst: 1000},
	})
	if status, code := send(t, http.MethodPost, cts.URL+"/kernels", "coexec", kernelsBody(t, 1)); status != http.StatusBadRequest || code != "bad-tenant" {
		t.Fatalf("X-Tenant coexec: %d %q, want 400 bad-tenant", status, code)
	}
	if status, _ := send(t, http.MethodPost, cts.URL+"/kernels", "alice", kernelsBody(t, 1)); status != http.StatusOK {
		t.Fatalf("X-Tenant alice: %d, want 200", status)
	}
	quotas := coord.Metrics().Quotas
	if len(quotas) != 1 || quotas[0].Tenant != "alice" {
		t.Errorf("quota buckets %+v, want alice's alone", quotas)
	}
}

// tickingTransport advances a Fake clock before every request it sends,
// so a campaign's pace refills quota buckets without reading wall time.
type tickingTransport struct {
	clk  *clock.Fake
	step time.Duration
}

func (tt tickingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tt.clk.Advance(tt.step)
	return http.DefaultTransport.RoundTrip(req)
}

// TestCoordinatorAttackCampaign throws the kfuzz -attack campaign at a
// coordinator over two workers: 500 submissions, generated programs and
// hostile mutations, from tenants red, blue and green, 16 at a time, with
// the coordinator's quota at 50 per second and a burst of 100. The
// coordinator routes a /kernels body on its SHA-256 and never decodes it,
// so every hostile body crosses it unparsed to a worker. Every reply must
// be classified (no 5xx, no hang, no untyped body), and afterwards the
// coordinator and both workers must still be ready.
//
// The coordinator runs on a Fake clock that the client moves 20 ms per
// request: the quotas refill as they would at 50 requests per second.
func TestCoordinatorAttackCampaign(t *testing.T) {
	w1, _ := startWorker(t, nil)
	w2, _ := startWorker(t, nil)
	clk := clock.NewFake(epoch)
	cts, _ := startCoordinator(t, Config{
		Workers: []string{w1.URL, w2.URL},
		Quota:   sched.QuotaConfig{Rate: 50, Burst: 100},
		clock:   clk,
	})
	rep, err := fuzz.Attack(cts.URL, 1, 500, fuzz.AttackOptions{
		Tenants:     []string{"red", "blue", "green"},
		Concurrency: 16,
		Client:      &http.Client{Transport: tickingTransport{clk: clk, step: 20 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("unclassified responses:\n%s", strings.Join(rep.Unclassified, "\n"))
	}
	if rep.Requests != 500 {
		t.Errorf("requests = %d, want 500", rep.Requests)
	}
	if rep.ByClass[server.ClassOK]+rep.ByClass[server.ClassWatchdog] == 0 {
		t.Error("no submission reached a worker and ran")
	}
	for _, url := range []string{cts.URL, w1.URL, w2.URL} {
		if status, _ := send(t, http.MethodGet, url+"/healthz/ready", "", nil); status != http.StatusOK {
			t.Errorf("%s/healthz/ready: %d after the campaign, want 200", url, status)
		}
	}
	t.Logf("%s", rep.Summary())
}
