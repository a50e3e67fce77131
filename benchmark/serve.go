package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/cluster"
	"gpucmp/internal/core"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
	"gpucmp/internal/submit"
)

const (
	// serveClients is the number of closed-loop clients: each sends its
	// next request when the previous reply has arrived.
	serveClients = 2
	// serveWorkers is the number of worker daemons behind the coordinator.
	serveWorkers = 2
	// jobTimeout is gpucmpd's shipped -job-timeout.
	jobTimeout = 5 * time.Minute

	hotScale        = 16
	hotRepeats      = 60 // requests per working-set key per round
	hotRoundSeconds = 2.0
	hotTracedOps    = 720

	coldMinScale     = 16
	coldScales       = 49 // scales 16..64
	coldKernels      = 40 // well-formed /kernels submissions per round
	coldHostile      = 8  // hostile bodies per round
	coldRoundSeconds = 1.5
	coldTracedOps    = 160  // a whole round
	coldPoolFirst    = 1001 // first generator seed of the /kernels programs
	// coldSpotCheck is the share of 2xx /run replies compared against
	// core.Direct after the timed section.
	coldSpotCheck = 0.05
)

// fleet is an in-process gpucmpd deployment: worker daemons on loopback
// listeners behind one coordinator, all with the shipped defaults.
type fleet struct {
	coord   *cluster.Coordinator
	scheds  []*sched.Scheduler
	servers []*http.Server
	serving sync.WaitGroup
	url     string // the coordinator's base URL
	client  *http.Client
	idle    *http.Transport // the coordinator's connections to the workers
}

// listen serves h on a fresh loopback port and returns the address.
func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return ln.Addr().String(), nil
}

// startFleet brings a fleet up. With a tracer, every handler and the
// coordinator's outgoing hops are wrapped in spans; without, nothing of the
// benchmark sits between the client and the system.
//
// The coordinator knows its workers by fixed names, which its client dials
// at whatever ports the workers got: the consistent-hash ring places keys by
// worker URL, so with the ports in the URLs every run would split the keys
// between the workers differently.
func startFleet(t *tracer) (*fleet, error) {
	f := &fleet{}
	addrs := map[string]string{} // worker host:port as the ring knows it -> real address
	var workers []string
	for i := 0; i < serveWorkers; i++ {
		s := sched.New(sched.Options{JobTimeout: jobTimeout})
		f.scheds = append(f.scheds, s)
		h := server.New(s).Handler()
		if t != nil {
			h = t.middleware("server", h)
		}
		addr, err := f.listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		name := fmt.Sprintf("worker-%d.bench:80", i)
		addrs[name] = addr
		workers = append(workers, "http://"+name)
	}
	// cluster's default client, dialing the fixed names.
	var dialer net.Dialer
	var transport http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     30 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, addrs[addr])
		},
	}
	f.idle = transport.(*http.Transport)
	if t != nil {
		transport = &tracedTransport{t: t, next: transport}
	}
	f.coord = cluster.New(cluster.Config{Workers: workers, Client: &http.Client{Transport: transport}})
	f.coord.Start()
	h := f.coord.Handler()
	if t != nil {
		h = t.middleware("cluster", h)
	}
	addr, err := f.listen(h)
	if err != nil {
		f.close()
		return nil, err
	}
	f.url = "http://" + addr
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	return f, nil
}

// close stops the fleet and waits for every goroutine it started.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	if f.idle != nil {
		f.idle.CloseIdleConnections()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	f.serving.Wait()
	if f.coord != nil {
		f.coord.Close()
	}
	for _, s := range f.scheds {
		s.Close()
	}
}

// request is one HTTP operation and what a correct reply looks like.
type request struct {
	path string // "/run" or "/kernels"
	body []byte
	// want is the exact body of a reply from the result cache and direct
	// the values core.Direct computed for the job (serve-hot); with neither,
	// only the status class is checked inline.
	want   []byte
	direct *runReply
	// hostile marks a body that must be refused with a typed 4xx.
	hostile bool
	// job is set on /run requests chosen for the spot check.
	job *sched.Job
}

// reply is what came back for a request.
type reply struct {
	status int
	cache  string // the X-Cache header: miss, hit or shared
	body   []byte
	err    error
}

func (f *fleet) do(rq *request, spanID int64) reply {
	req, err := http.NewRequest(http.MethodPost, f.url+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "bench")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body, err: err}
}

// typedError is the {"error","code"} shape every refusal carries.
type typedError struct {
	Code string `json:"code"`
}

// ok says whether the reply is the one the request deserves: a hostile body
// must be refused with a typed 4xx; anything else must succeed, and match
// the expected bytes where the request carries them.
func (rq *request) ok(rp reply) bool {
	if rp.err != nil {
		return false
	}
	if rq.hostile {
		var te typedError
		return rp.status >= 400 && rp.status < 500 && json.Unmarshal(rp.body, &te) == nil && te.Code != ""
	}
	if rp.status != http.StatusOK {
		return false
	}
	if rq.direct == nil || bytes.Equal(rp.body, rq.want) {
		return true
	}
	// Not the cached bytes — a hedge that another worker computed afresh,
	// say — so compare the values themselves.
	var got runReply
	return json.Unmarshal(rp.body, &got) == nil && got == *rq.direct
}

// runReply is the part of a /run reply the benchmark verifies.
type runReply struct {
	Result struct {
		Value         float64 `json:"value"`
		KernelSeconds float64 `json:"kernel_seconds"`
	} `json:"result"`
}

// direct runs the job through core.Direct and returns what a correct /run
// reply for it must carry.
func direct(j sched.Job) (*runReply, error) {
	a, spec := resolve(j)
	res, err := core.Direct(a, j.Toolchain, spec, j.Config)
	if err != nil {
		return nil, err
	}
	want := &runReply{}
	want.Result.Value, want.Result.KernelSeconds = res.Value, res.KernelSeconds
	return want, nil
}

// runRound sends the requests from serveClients closed-loop clients that
// draw from one shared cursor, and returns one result per request. keep, if
// not nil, receives the reply bodies of requests that carry a job.
func (f *fleet) runRound(reqs []*request, keep map[*request][]byte) []opResult {
	out := make([]opResult, len(reqs))
	var cursor atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				rq := reqs[i]
				t0 := time.Now()
				rp := f.do(rq, 0)
				out[i] = opResult{Latency: time.Since(t0), OK: rq.ok(rp)}
				if keep != nil && rq.job != nil {
					mu.Lock()
					keep[rq] = rp.body
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// replayPaired sends each request twice, one at a time from one client: to
// the traced fleet tf under a root span, so every span below has exactly
// one possible parent, and to the untraced fleet f. The two fleets are in
// the same state, so the request costs both the same. It records the span
// and counter metrics every serve workload shares.
func (f *fleet) replayPaired(t *tracer, tf *fleet, reqs []*request, lm *layerMetrics) {
	traced := func(i int) float64 {
		root := t.begin(0, "client", "POST "+reqs[i].path)
		rp := tf.do(reqs[i], root)
		seconds := t.end(root).Seconds()
		lm.attempted++
		if !reqs[i].ok(rp) {
			lm.failed++
		}
		return seconds
	}
	untraced := func(i int) float64 {
		t0 := time.Now()
		f.do(reqs[i], 0)
		return time.Since(t0).Seconds()
	}
	c0, s0 := readProcessCounters(), tf.schedSnapshot()
	tr, un := pairedReplay(len(reqs), traced, untraced)
	c1, s1 := readProcessCounters(), tf.schedSnapshot()
	lm.addCounterDeltas(c0, c1, lm.addOverhead(tr, un))

	lm.addSelfTimes(t, map[string]string{
		"client":  "client.self_ms",
		"cluster": "cluster.self_ms",
		"hop":     "cluster.hop_self_ms",
	})
	lm.p50("cluster.handler_ms", t.durations("cluster", ""), "ms")
	lm.p50("cluster.hop_ms", t.durations("hop", ""), "ms")
	lm.p50("server.handler_ms", t.durations("server", ""), "ms")
	t.mu.Lock()
	lm.set("server.response_bytes", median(t.responseBytes), "bytes", len(t.responseBytes))
	t.mu.Unlock()
	snap := tf.coord.Metrics()
	lm.set("cluster.hedges", float64(snap.Hedges), "count", 0)
	lm.set("cluster.hedge_wins", float64(snap.HedgeWins), "count", 0)
	lm.set("cluster.failovers", float64(snap.Failovers), "count", 0)
	lm.set("cluster.dedup_joined", float64(snap.DedupJoined), "count", 0)
	if lookups := s1.CacheHits - s0.CacheHits + s1.CacheMisses - s0.CacheMisses; lookups > 0 {
		lm.set("sched.cache_hit_ratio", float64(s1.CacheHits-s0.CacheHits)/float64(lookups), "ratio", int(lookups))
	}
	lm.set("sched.retries", float64(s1.Retries-s0.Retries), "count", 0)
	lm.set("sched.dedup_shared", float64(s1.DedupShared-s0.DedupShared), "count", 0)
}

// schedSnapshot sums the counters of the fleet's worker schedulers.
func (f *fleet) schedSnapshot() sched.Snapshot {
	var sum sched.Snapshot
	for _, s := range f.scheds {
		snap := s.Metrics().Snapshot()
		sum.CacheHits += snap.CacheHits
		sum.CacheMisses += snap.CacheMisses
		sum.Retries += snap.Retries
		sum.DedupShared += snap.DedupShared
	}
	return sum
}

// --- tracing middleware ----------------------------------------------------

// countingWriter counts the bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return w.ResponseWriter.Write(b)
}

// middleware wraps a handler in a span whose parent arrives in spanHeader,
// and records the bytes a worker wrote. The coordinator's span is also
// published as the parent of the hops the coordinator makes, which run on
// contexts detached from the request: one request is in flight at a time.
func (t *tracer) middleware(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := parseSpanHeader(r.Header.Get(spanHeader))
		if parent == 0 { // a readiness probe, not an operation
			next.ServeHTTP(w, r)
			return
		}
		s := t.begin(parent, layer, r.Method+" "+r.URL.Path)
		if layer == "cluster" {
			t.coordSpan.Store(s)
			next.ServeHTTP(w, r)
			t.coordSpan.Store(0)
			t.end(s)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		t.end(s)
		t.mu.Lock()
		t.responseBytes = append(t.responseBytes, float64(cw.n))
		t.mu.Unlock()
	})
}

// tracedTransport times each worker hop the coordinator makes and passes
// the hop's span ID on to the worker.
type tracedTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := tt.t.coordSpan.Load()
	if parent == 0 || req.Method != http.MethodPost { // a readiness probe
		return tt.next.RoundTrip(req)
	}
	s := tt.t.begin(parent, "hop", req.Method+" "+req.URL.Path)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(s, 10))
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		tt.t.end(s)
		return nil, err
	}
	// The hop ends when the coordinator has read the whole reply.
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { tt.t.end(s) }}
	return resp, nil
}

// spanBody ends a span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// probeScheduler runs the /run jobs through a scheduler of its own, twice:
// the first Do of a key misses, the second hits.
func probeScheduler(lm layerMetrics, jobs []sched.Job) {
	s := sched.New(sched.Options{JobTimeout: jobTimeout})
	defer s.Close()
	var miss, hit []float64
	for pass := 0; pass < 2; pass++ {
		for _, j := range jobs {
			t0 := time.Now()
			_, outcome, err := s.Do(context.Background(), j)
			d := time.Since(t0).Seconds()
			switch {
			case err != nil:
			case outcome == sched.Miss:
				miss = append(miss, d)
			case outcome == sched.Hit:
				hit = append(hit, d)
			}
		}
	}
	lm.p50("sched.do_miss_ms", miss, "ms")
	lm.p50("sched.do_hit_us", hit, "us")
	var execSum float64
	var execN uint64
	for _, h := range s.Metrics().Histograms() {
		execSum += h.Sum()
		execN += h.Count()
	}
	if execN > 0 && len(miss) > 0 {
		var missSum float64
		for _, d := range miss {
			missSum += d
		}
		exec := execSum / float64(execN)
		lm.m["sched.exec_ms"] = metric{Value: exec * 1e3, Unit: "ms", Count: int(execN), Note: "mean"}
		// What a miss waits beyond its own execution: queueing and hand-off.
		lm.m["sched.queue_wait_ms"] = metric{Value: (missSum/float64(len(miss)) - exec) * 1e3, Unit: "ms", Count: len(miss), Note: "mean"}
	}
}

// runJobs returns the jobs of the /run requests in reqs.
func runJobs(reqs []*request) []sched.Job {
	var jobs []sched.Job
	for _, rq := range reqs {
		if rq.path != "/run" || rq.hostile {
			continue
		}
		var j sched.Job
		if json.Unmarshal(rq.body, &j) == nil {
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// --- serve-hot ---------------------------------------------------------------

// serveHot is the serve-hot workload: /run requests over a small working
// set that was computed and cached during set-up.
type serveHot struct {
	rounds  int
	repeats int // requests per working-set key per round
	traced  int // requests the traced run replays
	working int // keys in the working set
	seed    int64
	fleet   *fleet
	keys    []*request // the working set, one request per key
	lastURL string     // where the last fleet listened
}

func newServeHot(seconds int) *serveHot {
	return &serveHot{rounds: roundsFor(seconds, hotRoundSeconds), repeats: hotRepeats, traced: hotTracedOps, working: len(hotJobs())}
}

func (h *serveHot) Name() string { return "serve-hot" }
func (h *serveHot) Rounds() int  { return h.rounds }
func (h *serveHot) Verify() int  { return 0 }

func (h *serveHot) Close() {
	if h.fleet != nil {
		h.fleet.close()
		h.fleet = nil
	}
}

// hotJobs is the working set: every benchmark on each GPU with the GPU's
// native toolchain.
func hotJobs() []sched.Job {
	var jobs []sched.Job
	for _, a := range arch.All() {
		if a.Kind != arch.KindGPU {
			continue
		}
		tc := "opencl"
		if a.Vendor == "NVIDIA" {
			tc = "cuda"
		}
		for _, spec := range bench.Registry() {
			cfg := bench.NativeConfig(tc)
			cfg.Scale = hotScale
			jobs = append(jobs, sched.Job{Benchmark: spec.Name, Device: a.Name, Toolchain: tc, Config: cfg})
		}
	}
	return jobs
}

func (h *serveHot) Setup(seed int64) error {
	h.seed = seed
	var err error
	if h.fleet, err = startFleet(nil); err != nil {
		return err
	}
	h.lastURL = h.fleet.url
	h.keys, err = warmWorkingSet(h.fleet, hotJobs()[:h.working])
	return err
}

// warmWorkingSet sends every key until the reply comes from the result
// cache (a hedge can cancel the first computation). Every reply is compared
// with core.Direct; the cached one is the exact body later replies for the
// key are expected to equal.
func warmWorkingSet(f *fleet, jobs []sched.Job) ([]*request, error) {
	var keys []*request
	for _, j := range jobs {
		body, err := json.Marshal(j)
		if err != nil {
			return nil, err
		}
		rq := &request{path: "/run", body: body}
		if rq.direct, err = direct(j); err != nil {
			return nil, err
		}
		for try := 0; rq.want == nil; try++ {
			rp := f.do(rq, 0)
			if !rq.ok(rp) {
				return nil, fmt.Errorf("warm-up %s: reply differs from core.Direct (status %d, err %v)", j.Key(), rp.status, rp.err)
			}
			if rp.cache == "hit" {
				rq.want = rp.body
			} else if try == 5 {
				return nil, fmt.Errorf("warm-up %s: still not cached after %d requests", j.Key(), try+1)
			}
		}
		keys = append(keys, rq)
	}
	return keys, nil
}

// draw returns n requests that visit every key equally often, in an order
// drawn from the seed and the round.
func (h *serveHot) draw(keys []*request, round, n int) []*request {
	reqs := make([]*request, 0, n)
	for len(reqs) < n {
		reqs = append(reqs, keys[len(reqs)%len(keys)])
	}
	rng := rand.New(rand.NewSource(h.seed*1000003 + int64(round)))
	rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
	return reqs
}

func (h *serveHot) Round(r int) []opResult {
	return h.fleet.runRound(h.draw(h.keys, r, h.repeats*len(h.keys)), nil)
}

func (h *serveHot) Trace(t *tracer) (layerMetrics, error) {
	lm := newLayerMetrics()
	tf, err := startFleet(t)
	if err != nil {
		return lm, err
	}
	defer tf.close()
	keys, err := warmWorkingSet(tf, hotJobs()[:h.working])
	if err != nil {
		return lm, err
	}
	// Both fleets hold the same working set, so a key's request object
	// (and its expected bytes) serves either.
	for i, rq := range keys {
		if !bytes.Equal(rq.want, h.keys[i].want) {
			return lm, fmt.Errorf("%s: the two fleets cached different replies", rq.body)
		}
	}
	h.fleet.replayPaired(t, tf, h.draw(keys, 0, h.traced), &lm)
	probeScheduler(lm, hotJobs()[:h.working])
	// Every request of this workload hits, so a worker's own cost is its
	// handler time beyond the scheduler's cache lookup.
	lm.m["server.self_ms"] = metric{Value: lm.m["server.handler_ms"].Value - lm.m["sched.do_hit_us"].Value/1e3, Unit: "ms",
		Count: lm.m["server.handler_ms"].Count, Note: "p50 handler - p50 sched.Do hit"}
	return lm, nil
}

// --- serve-cold --------------------------------------------------------------

// serveCold is the serve-cold workload: requests that never repeat a
// content key, so every cache is written and none is read.
type serveCold struct {
	rounds  int
	traced  int // requests of round 0 the traced run replays
	seed    int64
	fleet   *fleet
	reqs    [][]*request // per round
	kept    map[*request][]byte
	lastURL string // where the last fleet listened
}

func newServeCold(seconds int) *serveCold {
	return &serveCold{rounds: roundsFor(seconds, coldRoundSeconds), traced: coldTracedOps}
}

func (c *serveCold) Name() string { return "serve-cold" }
func (c *serveCold) Rounds() int  { return c.rounds }

func (c *serveCold) Close() {
	if c.fleet != nil {
		c.fleet.close()
		c.fleet = nil
	}
}

// encodePatched is fuzz.Encode with fn applied to the decoded JSON object.
func encodePatched(p *fuzz.Program, fn func(m map[string]any)) ([]byte, error) {
	blob, err := fuzz.Encode(p)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, err
	}
	fn(m)
	return json.Marshal(m)
}

// kernelBody is a well-formed /kernels submission of a generated program,
// to run on one device.
func kernelBody(p *fuzz.Program, device string) ([]byte, error) {
	return encodePatched(p, func(m map[string]any) { m["devices"] = []string{device} })
}

// hostileBody is the n-th hostile request: each is a distinct body that the
// fleet must refuse with a typed 4xx.
func hostileBody(p *fuzz.Program, n int) (*request, error) {
	rq := &request{path: "/kernels", hostile: true}
	var err error
	switch n % 6 {
	case 0: // truncated JSON
		if rq.body, err = fuzz.Encode(p); err == nil {
			rq.body = rq.body[:len(rq.body)/2]
		}
	case 1:
		rq.body, err = encodePatched(p, func(m map[string]any) { m["block"] = 0 })
	case 2:
		rq.body, err = encodePatched(p, func(m map[string]any) { m["devices"] = []string{"GeForce 9999"} })
	case 3:
		rq.body, err = encodePatched(p, func(m map[string]any) { m["out"] = "nosuch" })
	case 4:
		rq.path = "/run"
		rq.body = []byte(fmt.Sprintf(`{"benchmark":"NoSuch%d","device":"GeForce GTX480","toolchain":"cuda"}`, p.Seed))
	case 5: // truncated JSON
		rq.path = "/run"
		rq.body = []byte(fmt.Sprintf(`{"benchmark":"Reduce","seed":%d`, p.Seed))
	}
	return rq, err
}

func (c *serveCold) Setup(seed int64) error {
	c.seed = seed
	c.kept = map[*request][]byte{}
	rng := rand.New(rand.NewSource(seed))
	cells := sched.GridJobs(1)
	// Each grid cell walks its own permutation of the scales, so no
	// (cell, scale) pair — no content key — comes up twice.
	scaleOrder := make([][]int, len(cells))
	for i := range scaleOrder {
		scaleOrder[i] = rng.Perm(coldScales)
	}
	devices := arch.All()
	rounds := min(c.rounds, coldScales-1) // the last scale of every cell is the warm-up's
	c.rounds = rounds
	// One generated program per /kernels request and hostile body, from the
	// fixed pool (see fuzzPool), dealt in seed order.
	programs := fuzzPool(coldPoolFirst, rounds*(coldKernels+coldHostile))
	rng.Shuffle(len(programs), func(a, b int) { programs[a], programs[b] = programs[b], programs[a] })
	nextProgram := func() *fuzz.Program {
		p := programs[0]
		programs = programs[1:]
		return p
	}
	c.reqs = make([][]*request, rounds)
	for r := range c.reqs {
		var reqs []*request
		for i, cell := range cells {
			cell.Config.Scale = coldMinScale + scaleOrder[i][r]
			body, err := json.Marshal(cell)
			if err != nil {
				return err
			}
			rq := &request{path: "/run", body: body}
			if rng.Float64() < coldSpotCheck {
				j := cell
				rq.job = &j
			}
			reqs = append(reqs, rq)
		}
		for k := 0; k < coldKernels; k++ {
			body, err := kernelBody(nextProgram(), devices[k%len(devices)].Name)
			if err != nil {
				return err
			}
			reqs = append(reqs, &request{path: "/kernels", body: body})
		}
		for k := 0; k < coldHostile; k++ {
			rq, err := hostileBody(nextProgram(), r*coldHostile+k)
			if err != nil {
				return err
			}
			reqs = append(reqs, rq)
		}
		rng.Shuffle(len(reqs), func(a, b int) { reqs[a], reqs[b] = reqs[b], reqs[a] })
		c.reqs[r] = reqs
	}
	var err error
	if c.fleet, err = startFleet(nil); err != nil {
		return err
	}
	c.lastURL = c.fleet.url
	return warmCold(c.fleet, cells, scaleOrder)
}

// warmCold sends one request per benchmark and toolchain, at a scale no
// round uses, so connections are open and every kernel has been compiled
// once in this process before the timed section.
func warmCold(f *fleet, cells []sched.Job, scaleOrder [][]int) error {
	for i, cell := range cells {
		if cell.Device != arch.GTX480().Name {
			continue
		}
		cell.Config.Scale = coldMinScale + scaleOrder[i][coldScales-1]
		body, err := json.Marshal(cell)
		if err != nil {
			return err
		}
		rq := &request{path: "/run", body: body}
		if rp := f.do(rq, 0); !rq.ok(rp) {
			return fmt.Errorf("warm-up %s: status %d, err %v", cell.Key(), rp.status, rp.err)
		}
	}
	return nil
}

func (c *serveCold) Round(r int) []opResult {
	return c.fleet.runRound(c.reqs[r], c.kept)
}

// Verify compares the spot-checked /run replies with core.Direct.
func (c *serveCold) Verify() int {
	failed := 0
	for rq, body := range c.kept {
		want, err := direct(*rq.job)
		var got runReply
		if err != nil || json.Unmarshal(body, &got) != nil || got != *want {
			failed++
		}
	}
	return failed
}

func (c *serveCold) Trace(t *tracer) (layerMetrics, error) {
	lm := newLayerMetrics()
	tf, err := startFleet(t)
	if err != nil {
		return lm, err
	}
	defer tf.close()
	reqs := c.reqs[0][:c.traced]
	c.fleet.replayPaired(t, tf, reqs, &lm) // neither fleet has seen these keys
	probeScheduler(lm, runJobs(reqs))
	// Every /run of this workload misses.
	run := t.durations("server", "POST /run")
	var runOnly []float64
	for _, d := range run {
		if d > 0 {
			runOnly = append(runOnly, d)
		}
	}
	lm.m["server.self_ms"] = metric{Value: median(runOnly)*1e3 - lm.m["sched.do_miss_ms"].Value, Unit: "ms",
		Count: len(runOnly), Note: "p50 /run handler - p50 sched.Do miss"}
	var parse []float64
	for _, rq := range reqs {
		if rq.path == "/kernels" && !rq.hostile {
			t0 := time.Now()
			submit.Parse(rq.body, submit.DefaultLimits()) //nolint:errcheck // timing only
			parse = append(parse, time.Since(t0).Seconds())
		}
	}
	lm.p50("submit.parse_us", parse, "us")
	probeDeviceNew(lm)
	return lm, nil
}
