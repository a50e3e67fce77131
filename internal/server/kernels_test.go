package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/fuzz"
	"gpucmp/internal/kir"
	"gpucmp/internal/sched"
	"gpucmp/internal/sim"
	"gpucmp/internal/submit"
)

const corpusDir = "../fuzz/corpus"

// postKernel POSTs body to /kernels as tenant and decodes the classified
// response.
func postKernel(t *testing.T, url, tenant string, body []byte) (*http.Response, kernelResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/kernels", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var kr kernelResponse
	if err := json.Unmarshal(raw, &kr); err != nil {
		t.Fatalf("response is not JSON (%v): %s", err, raw)
	}
	return resp, kr
}

// TestKernelsCorpusReplay POSTs every fuzz corpus program unchanged —
// the wire format IS the corpus format — and expects a fully classified
// "ok" report from each.
func TestKernelsCorpusReplay(t *testing.T) {
	ts, _ := newTestServer(t)
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (%v)", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			body, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			resp, kr := postKernel(t, ts.URL, "", body)
			if resp.StatusCode != http.StatusOK || kr.Classification != ClassOK {
				t.Fatalf("status %d classification %q code %q: %s",
					resp.StatusCode, kr.Classification, kr.Code, kr.Error)
			}
			if kr.Report == nil || len(kr.Report.Compile) != 2 {
				t.Fatal("report missing the two-toolchain compile story")
			}
			for _, run := range kr.Report.Runs {
				if run.Status != "ok" {
					t.Errorf("%s/%s status %q (%s)", run.Toolchain, run.Device, run.Status, run.Reason)
				}
			}
		})
	}
}

// TestKernelsHangsReplay replays the hang corpus — programs that
// historically wedged the interpreter — and asserts each now dies a
// typed death: either the static gauntlet refuses it outright or the
// watchdog kills it. The server must answer promptly either way.
func TestKernelsHangsReplay(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		file  string
		class string
		code  string
	}{
		// hang0's loop step is the constant 0: statically unbounded, so
		// the gauntlet refuses it before any execution.
		{"hang0.json", ClassGauntletReject, "unbounded-loop"},
		// hang1's step is loaded from memory and happens to be 0 at run
		// time: no sound static check can refuse it, so the step budget
		// must kill it.
		{"hang1.json", ClassWatchdog, "watchdog"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			body, err := os.ReadFile(filepath.Join(corpusDir, "hangs", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			resp, kr := postKernel(t, ts.URL, "", body)
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Errorf("hang corpus response took %v; watchdog is not bounding work", elapsed)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("status = %d, want 422", resp.StatusCode)
			}
			if kr.Classification != tc.class || kr.Code != tc.code {
				t.Errorf("classification %q code %q, want %q/%q (%s)",
					kr.Classification, kr.Code, tc.class, tc.code, kr.Error)
			}
			if tc.class == ClassWatchdog {
				if kr.Report == nil || !kr.Report.Watchdogged {
					t.Error("watchdog response must still carry the report")
				}
			}
		})
	}
}

// TestKernelsStructuredErrors covers the non-2xx contract of POST
// /kernels: every failure is JSON with a stable machine code and the
// right status class.
func TestKernelsStructuredErrors(t *testing.T) {
	s := sched.New(sched.Options{Workers: 2})
	t.Cleanup(s.Close)
	lim := submit.DefaultLimits()
	lim.MaxBody = 512
	ts := httptest.NewServer(New(s, WithSubmitLimits(lim)).Handler())
	t.Cleanup(ts.Close)

	cases := []struct {
		name   string
		tenant string
		body   []byte
		status int
		code   string
	}{
		{"not json", "", []byte("]]]"), http.StatusBadRequest, submit.CodeBadJSON},
		{"empty object", "", []byte("{}"), http.StatusBadRequest, submit.CodeBadShape},
		{"unknown device", "", []byte(`{"grid":1,"block":1,"out":"o",
			"buffers":{"o":[0]},
			"kernel":{"name":"k","params":[{"name":"o","type":"u32","buffer":true,"space":"global"}],
			"body":[{"kind":"store","buf":"o","index":{"kind":"int","type":"u32"},"value":{"kind":"int","type":"u32"}}]},
			"devices":["GeForce 9999"]}`), http.StatusBadRequest, submit.CodeUnknownDevice},
		{"oversized body", "", bytes.Repeat([]byte(" "), 600), http.StatusRequestEntityTooLarge, codeTooLarge},
		{"bad tenant", "no spaces allowed", []byte("{}"), http.StatusBadRequest, codeBadTenant},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, kr := postKernel(t, ts.URL, tc.tenant, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if kr.Code != tc.code {
				t.Errorf("code = %q, want %q (error: %s)", kr.Code, tc.code, kr.Error)
			}
			if kr.Error == "" {
				t.Error("error body missing the error field")
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/kernels")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET status = %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("Allow = %q, want POST", allow)
		}
	})
}

// TestRunStructuredErrors pins the same contract on the pre-existing
// POST /run endpoint: typed codes and a body-size cap.
func TestRunStructuredErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"not json", "]]]", http.StatusBadRequest, codeBadJSON},
		{"unknown benchmark", `{"benchmark":"NoSuch","device":"GeForce GTX480","toolchain":"opencl"}`,
			http.StatusBadRequest, codeUnknownBenchmark},
		{"unknown device", `{"benchmark":"FFT","device":"GeForce 9999","toolchain":"opencl"}`,
			http.StatusBadRequest, codeUnknownDevice},
		{"oversized body", `{"pad":"` + strings.Repeat("x", 1<<17) + `"}`,
			http.StatusRequestEntityTooLarge, codeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if eb.Code != tc.code {
				t.Errorf("code = %q, want %q (error: %s)", eb.Code, tc.code, eb.Error)
			}
		})
	}
}

// TestKernelsConstOverflowSkipped: a constant buffer of MaxBufWords words
// passes every submission limit but cannot fit the 64 KiB constant
// segment beside its parameter area, so every run of the matrix comes
// back "skipped" with the device's out-of-resources error, not a fault.
func TestKernelsConstOverflowSkipped(t *testing.T) {
	ts, _ := newTestServer(t)
	b := kir.NewKernel("bigconst")
	c := b.ConstBuffer("c", kir.U32)
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(out, gid, b.Load(c, gid))
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"grid": 2, "block": 4, "out": "out",
		"buffers": map[string][]uint32{
			"c":   make([]uint32, submit.DefaultLimits().MaxBufWords),
			"out": make([]uint32, 8),
		},
		"kernel": kir.EncodeKernelJSON(k),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, kr := postKernel(t, ts.URL, "", body)
	if resp.StatusCode != http.StatusOK || kr.Classification != ClassOK || kr.Report == nil {
		t.Fatalf("status %d classification %q code %q: %s",
			resp.StatusCode, kr.Classification, kr.Code, kr.Error)
	}
	if n := len(kr.Report.Runs); n != 7 {
		t.Fatalf("%d runs, want 7 (opencl on five devices, cuda on two)", n)
	}
	for _, run := range kr.Report.Runs {
		if run.Status != "skipped" || !strings.Contains(run.Reason, sim.ErrOutOfResources.Error()) {
			t.Errorf("%s/%s: status %q (%s), want skipped: %v",
				run.Toolchain, run.Device, run.Status, run.Reason, sim.ErrOutOfResources)
		}
	}
}

// validSubmission is a small well-behaved body pinned to one device so
// the multi-tenant tests run fast.
func validSubmission(t *testing.T) []byte {
	t.Helper()
	return []byte(`{"grid":1,"block":4,"out":"o","buffers":{"o":[0,0,0,0]},
		"kernel":{"name":"k","params":[{"name":"o","type":"u32","buffer":true,"space":"global"}],
		"body":[{"kind":"store","buf":"o",
			"index":{"kind":"builtin","name":"threadIdx.x"},
			"value":{"kind":"builtin","name":"threadIdx.x"}}]},
		"devices":["GeForce GTX480"]}`)
}

// TestKernelsTenantIsolation: one tenant's cached result must never be
// served to another, while repeats within a tenant hit its cache. Run
// under -race this also exercises the tenant cache/flight locking.
func TestKernelsTenantIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	s := sched.New(sched.Options{Workers: 4})
	srv := httptest.NewServer(New(s).Handler())
	body := validSubmission(t)

	// Warm tenant A, then assert the repeat is a hit.
	_, first := postKernel(t, srv.URL, "alice", body)
	if first.Classification != ClassOK {
		t.Fatalf("first submission failed: %q %s", first.Code, first.Error)
	}
	if first.Cached {
		t.Error("first submission claims to be cached")
	}
	_, again := postKernel(t, srv.URL, "alice", body)
	if !again.Cached || again.Served != "hit" {
		t.Errorf("repeat for the same tenant: cached=%v served=%q, want a cache hit",
			again.Cached, again.Served)
	}
	if again.Key != first.Key {
		t.Errorf("same body produced different keys %q / %q", again.Key, first.Key)
	}

	// Same body from tenant B: same content key, but it must NOT see
	// alice's cache entry.
	_, other := postKernel(t, srv.URL, "bob", body)
	if other.Cached {
		t.Error("cross-tenant cache leak: bob was served alice's cached result")
	}
	if other.Key != first.Key {
		t.Errorf("content key should be tenant-independent, got %q / %q", other.Key, first.Key)
	}

	// A concurrent burst across tenants under -race: every response must
	// be classified ok and cache hits must stay within the tenant.
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			tenant := fmt.Sprintf("tenant%d", i)
			go func() {
				defer wg.Done()
				resp, kr := postKernel(t, srv.URL, tenant, body)
				if resp.StatusCode != http.StatusOK || kr.Classification != ClassOK {
					errs <- fmt.Sprintf("%s: status %d class %q", tenant, resp.StatusCode, kr.Classification)
				}
			}()
			_ = j
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for i := 0; i < 4; i++ {
		if n := s.TenantCacheLen(fmt.Sprintf("tenant%d", i)); n != 1 {
			t.Errorf("tenant%d cache has %d entries, want 1", i, n)
		}
	}

	// Goroutine-leak check: tearing down the server and scheduler must
	// return us to the baseline.
	srv.Close()
	s.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestKernelsQuota: a rate-limited tenant gets a classified 429 with a
// Retry-After header before the server does any parsing work, and other
// tenants are unaffected.
func TestKernelsQuota(t *testing.T) {
	s := sched.New(sched.Options{
		Workers: 2,
		Quota:   sched.QuotaConfig{Rate: 0.01, Burst: 1},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(New(s).Handler())
	t.Cleanup(ts.Close)
	body := validSubmission(t)

	resp, kr := postKernel(t, ts.URL, "greedy", body)
	if resp.StatusCode != http.StatusOK || kr.Classification != ClassOK {
		t.Fatalf("first request: status %d class %q", resp.StatusCode, kr.Classification)
	}
	resp, kr = postKernel(t, ts.URL, "greedy", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if kr.Classification != ClassQuota || kr.Code != codeQuota {
		t.Errorf("classification %q code %q, want quota/%s", kr.Classification, kr.Code, codeQuota)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive number of seconds", ra)
	}
	if kr.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %v, want >= 1", kr.RetryAfterSeconds)
	}

	// A different tenant has its own bucket.
	resp, kr = postKernel(t, ts.URL, "patient", body)
	if resp.StatusCode != http.StatusOK || kr.Classification != ClassOK {
		t.Errorf("other tenant throttled too: status %d class %q", resp.StatusCode, kr.Classification)
	}
}

// TestKernelsAttackCampaign runs the kfuzz -attack client in-process
// against a live server: every hostile submission must come back
// classified; any 5xx, hang, or unclassifiable body fails the campaign.
func TestKernelsAttackCampaign(t *testing.T) {
	ts, _ := newTestServer(t)
	// 36 requests cycle through every mutator twice (18 mutators).
	rep, err := fuzz.Attack(ts.URL, 1, 36, fuzz.AttackOptions{
		Tenants:     []string{"red", "blue"},
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("unclassified responses:\n%s", strings.Join(rep.Unclassified, "\n"))
	}
	if rep.Requests != 36 {
		t.Errorf("requests = %d, want 36", rep.Requests)
	}
	if rep.ByClass[ClassGauntletReject] == 0 {
		t.Error("campaign produced no gauntlet rejections; mutators are not hostile enough")
	}
	if rep.ByClass[ClassOK]+rep.ByClass[ClassWatchdog] == 0 {
		t.Error("campaign produced no executed kernels at all")
	}
}
