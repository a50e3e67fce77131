package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"gpucmp/internal/fuzz"
	"gpucmp/internal/server"
)

// start runs gpucmpd with args until the test ends and returns the base
// URL of the address it bound.
func start(t *testing.T, args ...string) string {
	t.Helper()
	base, stop := boot(t, args...)
	t.Cleanup(stop)
	return base
}

// boot runs gpucmpd with args and returns the base URL of the address it
// bound and a stop function, which cancels run's context and requires run
// to drain and return nil.
func boot(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, pw)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		cancel()
		t.Fatalf("run printed no address: %v (run: %v)", err, <-done)
	}
	go io.Copy(io.Discard, pr)
	stop := func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run after cancel = %v, want nil", err)
		}
	}
	fields := strings.Fields(line)
	return "http://" + fields[len(fields)-1], stop
}

// get fetches url and returns the status, headers and body.
func get(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	return do(t, http.MethodGet, url, "")
}

func do(t *testing.T, method, url, body string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

const reduceJob = `{"benchmark":"Reduce","device":"GeForce GTX480","toolchain":"opencl","config":{"scale":8}}`

// TestServeRunTwice boots the daemon from its flags, checks /healthz, and
// runs one job twice: both replies must be JSON, the second must come
// from the result cache, and /metrics must count exactly that one hit.
func TestServeRunTwice(t *testing.T) {
	base := start(t, "-addr", "127.0.0.1:0")
	if status, _, _ := get(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz: %d, want 200", status)
	}
	for i, want := range []string{"", "hit"} {
		status, h, body := do(t, http.MethodPost, base+"/run", reduceJob)
		if status != http.StatusOK || !json.Valid([]byte(body)) {
			t.Fatalf("/run #%d: %d, valid JSON %v:\n%s", i+1, status, json.Valid([]byte(body)), body)
		}
		if want != "" && h.Get("X-Cache") != want {
			t.Errorf("/run #%d: X-Cache %q, want %q", i+1, h.Get("X-Cache"), want)
		}
	}
	if _, _, metrics := get(t, base+"/metrics"); !regexp.MustCompile(`(?m)^gpucmpd_cache_hits_total 1$`).MatchString(metrics) {
		t.Error("/metrics has no line gpucmpd_cache_hits_total 1")
	}
}

// TestAttackCampaign throws the kfuzz -attack campaign at a worker booted
// with per-tenant quotas of 50 per second and a burst of 100: 500 POST
// /kernels submissions, generated programs and hostile mutations
// (malformed encodings, oversized shapes, zero-step and data-dependent
// infinite loops, divergent barriers, unknown devices, multi-megabyte
// bodies) from tenants red, blue and green, 16 at a time. Every reply must
// be classified (ok, gauntlet-reject, watchdog or quota; no 5xx, no hang),
// and afterwards the worker must still be ready and count its tasks. Under
// -race, any data race the concurrent tenants provoke fails it.
func TestAttackCampaign(t *testing.T) {
	base := start(t, "-addr", "127.0.0.1:0", "-quota-rate", "50", "-quota-burst", "100")
	rep, err := fuzz.Attack(base, 1, 500, fuzz.AttackOptions{
		Tenants:     []string{"red", "blue", "green"},
		Concurrency: 16,
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
		t.Error("no submission ran")
	}
	if status, _, _ := get(t, base+"/healthz/ready"); status != http.StatusOK {
		t.Errorf("/healthz/ready: %d after the campaign, want 200", status)
	}
	if _, _, metrics := get(t, base+"/metrics"); !regexp.MustCompile(`(?m)^gpucmpd_tasks_total`).MatchString(metrics) {
		t.Error("/metrics has no gpucmpd_tasks_total line")
	}
	t.Logf("%s", rep.Summary())
}

// TestCoordinatorOverWorker boots a worker, then a coordinator over it
// from the same flags the fleet uses: the coordinator must be ready and
// serve a /run through the worker. -coordinator without -shards is a
// command-line error, on which main exits 2.
func TestCoordinatorOverWorker(t *testing.T) {
	worker := start(t, "-addr", "127.0.0.1:0")
	coord := start(t, "-coordinator", "-addr", "127.0.0.1:0", "-shards", worker)
	if status, _, body := get(t, coord+"/healthz/ready"); status != http.StatusOK {
		t.Fatalf("coordinator /healthz/ready: %d, want 200:\n%s", status, body)
	}
	if status, _, body := do(t, http.MethodPost, coord+"/run", reduceJob); status != http.StatusOK || !json.Valid([]byte(body)) {
		t.Errorf("coordinator /run: %d:\n%s", status, body)
	}

	err := run(context.Background(), []string{"-coordinator", "-addr", "127.0.0.1:0"}, io.Discard)
	if !errors.Is(err, errUsage) {
		t.Errorf("-coordinator without -shards: %v, want a usage error", err)
	}
}

// TestDrainClosesUnusedConnection: a connection a client dialled and
// never wrote to does not hold up the drain.
func TestDrainClosesUnusedConnection(t *testing.T) {
	base, stop := boot(t, "-addr", "127.0.0.1:0")
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The daemon accepts connections in the order they were dialled, so
	// once a later one has been answered, the silent one is accepted too.
	if status, _, _ := get(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz: %d, want 200", status)
	}
	begin := time.Now()
	stop()
	if d := time.Since(begin); d >= time.Second {
		t.Errorf("drain took %v with a silent connection open, want under 1s", d)
	}
}
