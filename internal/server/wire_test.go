package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/bench"
	"gpucmp/internal/fault"
	"gpucmp/internal/golden"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sched"
)

// runResponse is the POST /run reply as a Go value. The handler does not
// build one — it writes the cached encoding of the result between a fixed
// head and tail (writeRun) — so this struct, encoded by json.Encoder as
// every other endpoint's reply is, is the reference the wire tests hold
// those bytes to, and what the other tests decode replies into.
type runResponse struct {
	Result *bench.Result `json:"result"`
	Cached bool          `json:"cached"`
	Served string        `json:"served"`
}

// reference is what writeJSON would have put on the wire for v.
func reference(t *testing.T, v runResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustEncode(t testing.TB, res *bench.Result) *sched.Encoded {
	t.Helper()
	e, err := sched.Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestWriteRunMatchesEncoder holds the assembled reply to the encoder's
// output over the result shapes that change the document's structure and
// the three outcomes a reply can carry.
func TestWriteRunMatchesEncoder(t *testing.T) {
	ok := &bench.Result{
		Benchmark: "Reduce", Toolchain: "opencl", Device: "GeForce GTX480",
		Metric: "GB/sec", Value: 93.25, KernelSeconds: 1.5e-05, EndToEndSeconds: 0.25,
		TransferSeconds: 1e-3, Transfer: &bench.TransferParams{PCIeGBps: 5.5, LatencySeconds: 1e-5},
		Correct: true,
		Kernels: []bench.KernelReport{{
			Name: "reduce<float>&co", Toolchain: "opencl", Instrs: 42, NumRegs: 9,
			PassStats: []ptx.PassStat{{}},
			Remarks:   []ptx.Remark{{}},
		}},
	}
	results := map[string]*bench.Result{
		"ok":            ok,
		"FL":            {Benchmark: "RdxS", Toolchain: "opencl", Device: "Cell/BE", Metric: "MElements/sec", Value: 3},
		"ABT":           {Benchmark: "FFT", Toolchain: "opencl", Device: "Cell/BE", Metric: "GFlops/sec", Err: errors.New("launch: <out of resources> & \"quotes\"\n\u2028")},
		"no kernels":    {Benchmark: "BFS", Toolchain: "cuda", Device: "GeForce GTX280", Metric: "sec", Value: 0.5, Correct: true, Kernels: []bench.KernelReport{}},
		"zero value":    {},
		"empty reports": {Correct: true, Kernels: []bench.KernelReport{{PassStats: []ptx.PassStat{}, Remarks: []ptx.Remark{}}}},
	}
	markers := map[sched.Outcome]runResponse{
		sched.Miss:   {Served: "miss"},
		sched.Hit:    {Served: "hit", Cached: true},
		sched.Shared: {Served: "shared"},
	}
	for name, res := range results {
		for o, m := range markers {
			m.Result = res
			want := reference(t, m)
			rec := httptest.NewRecorder()
			writeRun(rec, mustEncode(t, res), o)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s served %s:\n got %q\nwant %q", name, m.Served, got, want)
			}
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status %d", name, rec.Code)
			}
			h := rec.Header()
			if h.Get("Content-Type") != "application/json" || h.Get("X-Cache") != m.Served ||
				h.Get("Content-Length") != strconv.Itoa(len(want)) {
				t.Errorf("%s served %s: headers %v", name, m.Served, h)
			}
		}
	}
}

// postRaw posts a job to /run and returns the reply untouched.
func postRaw(t *testing.T, url string, job sched.Job) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(job)
	if err != nil {
		t.Error(err) // not Fatal: callers post from other goroutines too
		return nil, nil
	}
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp, raw
}

// checkWire holds one /run reply, byte for byte and header for header, to
// the encoder's rendering of want.
func checkWire(t *testing.T, what string, resp *http.Response, body []byte, want runResponse) {
	t.Helper()
	if resp == nil {
		return
	}
	ref := reference(t, want)
	if !bytes.Equal(body, ref) {
		t.Errorf("%s: body differs from the encoder's\n got %.200q…\nwant %.200q…", what, body, ref)
	}
	if resp.StatusCode != http.StatusOK ||
		resp.Header.Get("Content-Type") != "application/json" ||
		resp.Header.Get("X-Cache") != want.Served ||
		resp.ContentLength != int64(len(ref)) {
		t.Errorf("%s: status %d, Content-Length %d (want %d), headers %v",
			what, resp.StatusCode, resp.ContentLength, len(ref), resp.Header)
	}
}

// TestRunWireGolden drives real jobs through the handler and checks that a
// miss, a hit and a shared join each put on the wire exactly what
// json.Encoder produces for the same runResponse.
func TestRunWireGolden(t *testing.T) {
	t.Run("miss and hit", func(t *testing.T) {
		ts, s := newTestServer(t)
		for _, name := range []string{"Reduce", "MxM", "FFT", "BFS"} {
			job := sched.Job{Benchmark: name, Device: "GeForce GTX480", Toolchain: "opencl", Config: bench.Config{Scale: 16}}
			missResp, miss := postRaw(t, ts.URL, job)
			hitResp, hit := postRaw(t, ts.URL, job)
			e := storedResult(t, s, job)
			checkWire(t, name+" miss", missResp, miss, runResponse{Result: e.Result, Served: "miss"})
			checkWire(t, name+" hit", hitResp, hit, runResponse{Result: e.Result, Served: "hit", Cached: true})
		}
	})

	t.Run("shared", func(t *testing.T) {
		// Every launch stalls, so the second identical request finds the
		// first one in flight.
		inj := fault.New(1, fault.Schedule{SlowRate: 1, SlowDelay: 300 * time.Millisecond})
		s := sched.New(sched.Options{Workers: 2, Injector: inj})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(New(s).Handler())
		t.Cleanup(ts.Close)
		job := sched.Job{Benchmark: "Reduce", Device: "GeForce GTX480", Toolchain: "opencl", Config: bench.Config{Scale: 16}}

		var wg sync.WaitGroup
		resps := make([]*http.Response, 2)
		bodies := make([][]byte, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[0], bodies[0] = postRaw(t, ts.URL, job)
		}()
		// The second request goes out once the first is in flight.
		for s.Metrics().Snapshot().CacheMisses == 0 {
			time.Sleep(time.Millisecond)
		}
		resps[1], bodies[1] = postRaw(t, ts.URL, job)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		e := storedResult(t, s, job)
		served := map[string]bool{}
		for i, resp := range resps {
			xc := resp.Header.Get("X-Cache")
			served[xc] = true
			checkWire(t, xc, resp, bodies[i], runResponse{Result: e.Result, Served: xc})
		}
		if !served["miss"] || !served["shared"] {
			t.Errorf("served %v, want one miss and one shared join", served)
		}
	})
}

// storedResult is the result the scheduler's cache holds for job: a hit
// returns the stored *Encoded itself.
func storedResult(t *testing.T, s *sched.Scheduler, job sched.Job) *sched.Encoded {
	t.Helper()
	e, o, err := s.Do(context.Background(), job)
	if err != nil || o != sched.Hit {
		t.Fatalf("%s: Do = %v, %v: want a hit on the stored result", job.Benchmark, o, err)
	}
	return e
}

// discard is the least a ResponseWriter can be, so that what
// AllocsPerRun counts is writeRun's own work.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) WriteHeader(int)             {}
func (d discard) Write(b []byte) (int, error) { return len(b), nil }

// sizedResult is a result whose encoding is about n bytes.
func sizedResult(n int) *bench.Result {
	res := &bench.Result{Benchmark: "FFT", Toolchain: "cuda", Device: "GeForce GTX480", Metric: "GFlops/sec", Value: 1, Correct: true}
	for i := 0; i < n/100; i++ {
		res.Kernels = append(res.Kernels, bench.KernelReport{Name: "k" + strings.Repeat("x", 20), Toolchain: "cuda"})
	}
	return res
}

// TestWriteRunAllocsDoNotGrowWithResult pins the reply assembly to a small
// constant number of allocations — the three header values and the
// Content-Length digits — whatever the result's size: no encoder runs on a
// hit, and head and tail are fixed bytes.
func TestWriteRunAllocsDoNotGrowWithResult(t *testing.T) {
	for _, n := range []int{10 << 10, 143 << 10} {
		e := mustEncode(t, sizedResult(n))
		w := discard{h: http.Header{}}
		allocs := testing.AllocsPerRun(100, func() { writeRun(w, e, sched.Hit) })
		if allocs > 4 {
			t.Errorf("%d-byte result: %.0f allocations per reply, want a constant <= 4", len(e.JSON), allocs)
		}
	}
}

// remarkedResult is a result whose one kernel report carries n distinct
// remarks, about 85 bytes of encoding each.
func remarkedResult(n int) *bench.Result {
	kr := bench.KernelReport{Name: "forward", Toolchain: "cuda"}
	for i := 0; i < n; i++ {
		kr.Remarks = append(kr.Remarks, ptx.Remark{
			Phase: "frontend", Message: "CSE evicted r" + strconv.Itoa(i) + " under register pressure (window 10)", Count: 1,
		})
	}
	res := sizedResult(0)
	res.Kernels = []bench.KernelReport{kr}
	return res
}

// TestWriteRunDoesNotCopyResult: on a hit, writeRun allocates the same
// bytes for a 2 KB cached result as for one fifty times larger. The
// cached bytes go to the client as they are, not through a new buffer.
// Each count is the fewest of ten rounds, so that another goroutine's
// allocation cannot fail the comparison. The one allowed difference is
// the Content-Length value, a string of four digits for one and five for
// the other, which the runtime packs into 16-byte blocks.
func TestWriteRunDoesNotCopyResult(t *testing.T) {
	small := mustEncode(t, sizedResult(2<<10))
	large := mustEncode(t, remarkedResult(1100))
	if len(large.JSON) < 50*len(small.JSON) {
		t.Fatalf("the large result is %d bytes, the small one %d: want fifty times larger", len(large.JSON), len(small.JSON))
	}
	w := discard{h: http.Header{}}
	bytesPerReply := func(e *sched.Encoded) uint64 {
		const replies = 100
		fewest := uint64(math.MaxUint64)
		for round := 0; round < 10; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < replies; i++ {
				writeRun(w, e, sched.Hit)
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, (after.TotalAlloc-before.TotalAlloc)/replies)
		}
		return fewest
	}
	if a, b := bytesPerReply(small), bytesPerReply(large); max(a, b)-min(a, b) > 16 {
		t.Errorf("writeRun allocates %d bytes per reply for a %d-byte result, %d for a %d-byte one: want the same",
			a, len(small.JSON), b, len(large.JSON))
	}
}

// BenchmarkRunHit is POST /run for a cached key through the routed handler
// into a recorder: decode and validate the job, Scheduler.Do, write the
// reply. No sockets.
func BenchmarkRunHit(b *testing.B) {
	for _, bc := range []struct{ name, benchmark string }{
		{"10KB", "St2D"},
		{"FFT", "FFT"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := sched.New(sched.Options{})
			defer s.Close()
			h := New(s).Handler()
			body, _ := json.Marshal(sched.Job{Benchmark: bc.benchmark, Device: "GeForce GTX480", Toolchain: "cuda", Config: bench.Config{Scale: 16}})
			post := func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
				return rec
			}
			if rec := post(); rec.Code != http.StatusOK {
				b.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := post()
				if rec.Header().Get("X-Cache") != "hit" {
					b.Fatalf("X-Cache = %q", rec.Header().Get("X-Cache"))
				}
				b.SetBytes(int64(rec.Body.Len()))
			}
		})
	}
}

// reindented is body as json.Indent(body, "", "  ") renders it. Digests
// taken of this rendering pin a reply's values and structure whatever
// whitespace the service writes.
func reindented(t *testing.T, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		t.Fatalf("reply is not JSON (%v): %.200q", err, body)
	}
	return buf.Bytes()
}

// TestRepliesPinnedAfterIndent pins /run replies (a miss and a hit of
// three benchmarks) and a /kernels reply by the SHA-256 of their
// re-indented bytes, in testdata/replies.sha256, so they match only if
// nothing but whitespace differs. The Reduce digests are those of the
// two-space-indented replies the service wrote before its replies were
// compact. The others were recorded when repeated remarks became one
// entry with a count, with every other field byte-identical and the
// expanded remarks unchanged.
func TestRepliesPinnedAfterIndent(t *testing.T) {
	var digests bytes.Buffer
	record := func(what string, body []byte) {
		fmt.Fprintf(&digests, "%s %x\n", what, sha256.Sum256(reindented(t, body)))
	}
	ts, _ := newTestServer(t)
	for _, name := range []string{"Reduce", "FFT", "BFS"} {
		job := sched.Job{Benchmark: name, Device: "GeForce GTX480", Toolchain: "opencl", Config: bench.Config{Scale: 16}}
		_, miss := postRaw(t, ts.URL, job)
		_, hit := postRaw(t, ts.URL, job)
		record(name+"-miss", miss)
		record(name+"-hit", hit)
	}
	body, err := os.ReadFile(filepath.Join(corpusDir, "fz1.json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/kernels", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	record("kernels-fz1", raw)
	golden.Check(t, "testdata/replies.sha256", digests.Bytes())
}
