package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpucmp/internal/clock"
	"gpucmp/internal/metrics"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// Config configures a Coordinator. Zero fields take the documented
// defaults.
type Config struct {
	// Workers are the worker gpucmpd base URLs (e.g.
	// "http://127.0.0.1:8481"). They seed the ring; the readiness probe
	// loop removes workers whose /healthz/ready keeps failing to answer
	// 200 and re-adds them when they recover.
	Workers []string

	// MaxInFlight sheds load with 503 + Retry-After once this many
	// proxied requests are in flight (default 512; negative disables).
	MaxInFlight int
	// Quota throttles admissions per tenant (X-Tenant header, "anon"
	// when absent). The zero value admits everything.
	Quota sched.QuotaConfig

	// Client is the HTTP client used for worker calls (default: a client
	// with sane connection pooling and no overall timeout — per-attempt
	// contexts bound each call).
	Client *http.Client

	// clock drives the probe loop, the hedge timer, routed latencies,
	// breakers, quotas and uptime (nil = the wall clock).
	clock clock.Clock
	// noHedge arms no hedge timer, so a request is answered by its
	// primary attempt and failovers alone: the baseline the fleet
	// scenario holds hedging against.
	noHedge bool
}

// The routing and probing constants.
const (
	// hedgeQuantile is the observed-latency quantile that arms the hedge
	// timer: when a routed request has been in flight longer than this
	// quantile of recent requests, a second attempt is fired at the next
	// shard on the ring and the first response wins.
	hedgeQuantile = 0.95
	// hedgeMinDelay and hedgeMaxDelay clamp the hedge delay. Before
	// enough latency samples exist, hedgeColdDelay (clamped) is used.
	hedgeMinDelay  = 20 * time.Millisecond
	hedgeMaxDelay  = 2 * time.Second
	hedgeColdDelay = 100 * time.Millisecond
	// probeInterval is the worker readiness-probe period, and each
	// probe's timeout.
	probeInterval = time.Second
)

func (cfg Config) withDefaults() Config {
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 512
	}
	if cfg.clock == nil {
		cfg.clock = clock.Real{}
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
	return cfg
}

// Coordinator owns fleet admission control and routing: every request is
// admitted (shed / quota), keyed by its content, routed over the
// consistent-hash ring to a worker, hedged when slow, and failed over
// when the shard is down or its breaker is open.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	quotas  *sched.TenantQuotas
	metrics *Metrics
	lat     *latencyTracker
	start   time.Time

	server.Readiness // the coordinator's own drain switch and probes

	inFlight atomic.Int64

	breakers *metrics.Keyed[breaker]

	sfMu   sync.Mutex
	flight *sched.Flight[*shardResponse]

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup
	// misses counts each worker's consecutive failed readiness probes; only
	// probeOnce touches it.
	misses map[string]int
}

// New builds a coordinator over the configured workers. Every worker
// starts on the ring; call Start to begin readiness probing (which will
// evict workers that are down or draining).
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		ring:     NewRing(virtualNodes),
		quotas:   sched.NewTenantQuotas(cfg.Quota, cfg.clock),
		metrics:  newMetrics(),
		lat:      &latencyTracker{},
		start:    cfg.clock.Now(),
		breakers: metrics.NewKeyed(0, func() *breaker { return newBreaker(breakerThreshold, breakerCoolDown, cfg.clock) }),
		stop:     make(chan struct{}),
		misses:   make(map[string]int),
	}
	c.flight = sched.NewFlight[*shardResponse](&c.sfMu, nil)
	for _, w := range cfg.Workers {
		c.ring.Add(w)
		c.metrics.shards.Get(w) // pre-register so /metrics shows every shard from the start
	}
	return c
}

// Start launches the readiness-probe loop: one probe round every
// probeInterval, timed from the end of the previous round. Call Close to
// stop it.
func (c *Coordinator) Start() {
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		for {
			tick := make(chan struct{})
			t := c.cfg.clock.AfterFunc(probeInterval, func() { close(tick) })
			select {
			case <-c.stop:
				t.Stop()
				return
			case <-tick:
				c.probeOnce()
			}
		}
	}()
}

// Close stops the probe loop.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
}

// Ring exposes the routing ring (tests and cmd/gpucmpd logging).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Metrics exposes the fleet snapshot.
func (c *Coordinator) Metrics() Snapshot { return c.snapshot() }

// probeMisses is how many consecutive failed readiness probes evict a
// worker. One miss is not evidence: a probe's timeout is the probe interval
// itself, so on a loaded host healthy workers miss single ticks.
const probeMisses = 3

// probeOnce checks every configured worker's readiness endpoint and
// reconciles ring membership: a worker that keeps failing its probe
// (draining, crashed, partitioned) is removed — the coordinator stops
// routing to it and its arcs fall to their ring successors — and re-added
// the first time it answers 200 again. The last member is never removed on
// probe evidence alone: an empty ring refuses every request, while breakers
// and failover already cover a worker that is really dead.
func (c *Coordinator) probeOnce() {
	ready := make([]bool, len(c.cfg.Workers))
	var wg sync.WaitGroup
	for i, w := range c.cfg.Workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			ready[i] = c.probe(w)
		}(i, w)
	}
	wg.Wait()
	for i, w := range c.cfg.Workers {
		if ready[i] {
			c.misses[w] = 0
			c.ring.Add(w)
			continue
		}
		c.misses[w]++
		if c.misses[w] >= probeMisses && c.ring.Len() > 1 {
			c.ring.Remove(w)
		}
	}
}

func (c *Coordinator) probe(worker string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz/ready", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // drain for keep-alive
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// latencyTracker keeps a sliding window of recent end-to-end routed
// latencies for the hedge-delay quantile. forward arms a hedge timer for
// every routed request, so the quantile is on the request path: the window
// is kept ordered as observations arrive and reading a quantile is an
// index.
type latencyTracker struct {
	mu     sync.Mutex
	buf    [512]time.Duration // arrival order; buf[n % len] is the write slot
	sorted [512]time.Duration // the same samples in ascending order
	n      uint64             // total observations
}

// observe records d, replacing the oldest sample once the window is full:
// at most two binary searches and two moves within a 4 KiB array.
func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := t.n % uint64(len(t.buf))
	size := int(min(t.n, uint64(len(t.buf))))
	if size == len(t.buf) {
		i, _ := slices.BinarySearch(t.sorted[:size], t.buf[slot])
		copy(t.sorted[i:], t.sorted[i+1:size])
		size--
	}
	i, _ := slices.BinarySearch(t.sorted[:size], d)
	copy(t.sorted[i+1:size+1], t.sorted[i:size])
	t.sorted[i] = d
	t.buf[slot] = d
	t.n++
}

// quantile returns the q-quantile over the window, or false until enough
// samples (32) exist to make the estimate meaningful.
func (t *latencyTracker) quantile(q float64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(min(t.n, uint64(len(t.buf))))
	if n < 32 {
		return 0, false
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return t.sorted[i], true
}

func (c *Coordinator) hedgeDelay() time.Duration {
	d, ok := c.lat.quantile(hedgeQuantile)
	if !ok {
		d = hedgeColdDelay // no latency signal yet
	}
	return min(max(d, hedgeMinDelay), hedgeMaxDelay)
}

// shardResponse is one worker's buffered reply, replayable to any number
// of singleflight joiners.
type shardResponse struct {
	status int
	shard  string
	header http.Header // the subset worth forwarding
	body   []byte
}

// forwardedHeaders are the response headers replayed to clients.
var forwardedHeaders = []string{"Content-Type", "X-Cache", "Retry-After"}

// maxProxyBody caps a buffered worker response (figures are the largest
// legitimate payload at a few MiB).
const maxProxyBody = 32 << 20

var errNoShard = errors.New("cluster: no ready workers on the ring")

// failoverStatus reports whether a worker status speaks about the shard
// rather than the request: those attempts move to the next shard.
// 4xx and 500 are deterministic answers about the request itself and are
// returned to the client as-is (re-running them elsewhere would compute
// the same thing).
func failoverStatus(code int) bool {
	switch code {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// forward routes one admitted request: primary attempt at the key's ring
// owner, failover walking the preference list when a shard errors or its
// breaker is open, and a hedge attempt at the next distinct shard when
// the primary is slower than the hedge delay.
//
// The primary attempt, failovers included, runs on the caller's
// goroutine. When there is a shard to hedge to, the hedge timer is a
// clock callback: if it fires before the primary answers, the callback
// makes the hedge attempt itself, so a request answered within the hedge
// delay starts no goroutine. The first terminal response wins: a winning
// hedge cancels the attempt context, so the primary's HTTP request is
// aborted and it returns; a winning primary returns and cancels the
// hedge the same way. Cancelling a request also cancels the worker
// handler's context and — via the scheduler's abandonment path —
// reclaims the remote worker goroutine.
func (c *Coordinator) forward(ctx context.Context, method, pathq string, header http.Header, body []byte, key string) (*shardResponse, error) {
	shards := c.ring.LookupN(key, 3)
	if len(shards) == 0 {
		c.metrics.noShard.Add(1)
		return nil, errNoShard
	}
	c.metrics.routed.Add(1)

	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		resp *shardResponse
		err  error
	}
	var next atomic.Int32

	try := func(hedge bool) result {
		var lastErr error
		moved := false
		for {
			i := int(next.Add(1)) - 1
			if i >= len(shards) {
				if lastErr == nil {
					lastErr = errNoShard
				}
				return result{err: lastErr}
			}
			shard := shards[i]
			if moved {
				c.metrics.failovers.Add(1)
			}
			moved = true
			br := c.breakers.Get(shard)
			if ok, wait := br.Allow(); !ok {
				lastErr = fmt.Errorf("cluster: %w for shard %s (retry in %v)", errBreakerOpen, shard, wait)
				continue
			}
			sc := c.metrics.shards.Get(shard)
			sc.requests.Add(1)
			if hedge {
				sc.hedges.Add(1)
			}
			resp, err := c.send(actx, shard, method, pathq, header, body)
			if err == nil && !failoverStatus(resp.status) {
				br.Success()
				return result{resp: resp}
			}
			if errors.Is(err, errReplyTooLarge) {
				// The shard answered; the size belongs to the request.
				br.Success()
				return result{err: fmt.Errorf("cluster: shard %s: %w", shard, err)}
			}
			if actx.Err() != nil {
				// We lost the race (or the client left). The cancelled
				// attempt says nothing about the shard's health, so it
				// must not feed its breaker or error counters.
				return result{err: actx.Err()}
			}
			sc.errors.Add(1)
			br.Failure()
			if err != nil {
				lastErr = fmt.Errorf("cluster: shard %s: %w", shard, err)
			} else {
				lastErr = fmt.Errorf("cluster: shard %s answered %d", shard, resp.status)
			}
		}
	}
	// ends reports whether an attempt's result ends the request: a reply,
	// or one too large for any shard to send.
	ends := func(r result) bool { return r.err == nil || errors.Is(r.err, errReplyTooLarge) }

	start := c.cfg.clock.Now()
	var (
		ht    clock.Timer
		hedge chan result // the hedge callback's one result
	)
	if len(shards) > 1 && !c.cfg.noHedge {
		hedge = make(chan result, 1)
		ht = c.cfg.clock.AfterFunc(c.hedgeDelay(), func() {
			if actx.Err() != nil { // the primary answered as the timer fired
				hedge <- result{err: actx.Err()}
				return
			}
			c.metrics.hedges.Add(1)
			r := try(true)
			if ends(r) {
				cancel() // the primary has lost: abort its request
			}
			hedge <- r
		})
	}

	r := try(false)
	won := false // r is the hedge's result
	// A timer that was still armed started no hedge and now never will.
	if ht != nil && !ht.Stop() && !ends(r) {
		if h := <-hedge; ends(h) {
			r, won = h, true
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	c.lat.observe(c.cfg.clock.Now().Sub(start))
	if won {
		c.metrics.hedgeWins.Add(1)
		c.metrics.shards.Get(r.resp.shard).hedgeWins.Add(1)
	}
	return r.resp, nil
}

// send performs one HTTP attempt against one shard and buffers the
// response.
func (c *Coordinator) send(ctx context.Context, shard, method, pathq string, header http.Header, body []byte) (*shardResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, shard+pathq, rd)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "X-Tenant", "Accept"} {
		if v := header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := readBody(resp, maxProxyBody)
	if err != nil {
		return nil, err
	}
	out := &shardResponse{status: resp.StatusCode, shard: shard, header: http.Header{}, body: b}
	for _, h := range forwardedHeaders {
		if v := resp.Header.Get(h); v != "" {
			out.header.Set(h, v)
		}
	}
	return out, nil
}

// errReplyTooLarge marks a worker reply over the proxy limit. It says
// nothing about the shard's health and every shard would answer the same,
// so forward neither fails it over nor counts it against the breaker.
var errReplyTooLarge = errors.New("reply exceeds the coordinator's proxy limit")

// readBody buffers a worker reply of at most limit bytes; a longer one is
// errReplyTooLarge, never a truncated body. A reply that declares its
// length (every /run reply does) is read into one buffer of that size;
// only a chunked one pays io.ReadAll's regrowth.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", errReplyTooLarge, n, limit)
	} else if n >= 0 {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(len(b)) > limit {
		return nil, fmt.Errorf("%w: over %d bytes chunked", errReplyTooLarge, limit)
	}
	return b, err
}

// doShared shares one upstream call among identical in-flight forwards,
// keyed by sfKey, through the coordinator's sched.Flight: the other
// requests join the call and replay its buffered response. The leader,
// the request that found no call in flight, runs forward on its own
// (handler) goroutine under the call's context: if its client leaves, the
// leader departs the call like any joiner but still finishes it for the
// others, and the upstream is cancelled only once nobody is left waiting.
func (c *Coordinator) doShared(ctx context.Context, method, pathq string, header http.Header, body []byte, key, sfKey string) (*shardResponse, error) {
	c.sfMu.Lock()
	call, leader := c.flight.Join(sfKey)
	c.sfMu.Unlock()
	if !leader {
		c.metrics.dedupJoined.Add(1)
		return c.flight.Wait(ctx, call)
	}
	stop := context.AfterFunc(ctx, func() { c.flight.Leave(call) })
	resp, err := c.forward(call.Context(), method, pathq, header, body, key)
	c.sfMu.Lock()
	c.flight.Finish(call, resp, err)
	c.sfMu.Unlock()
	if !stop() { // the client left while the call ran
		return nil, ctx.Err()
	}
	return resp, err
}

// ---- HTTP face ----------------------------------------------------------

// Machine codes the coordinator adds on top of the worker vocabulary.
const (
	codeShedding   = "shedding"
	codeNoWorkers  = "no-workers"
	codeBadGateway = "bad-gateway"
	codeDraining   = "draining"

	// codeReplyTooLarge: a worker reply over maxProxyBody (a 502).
	codeReplyTooLarge = "reply-too-large"
)

// Handler returns the coordinator's HTTP handler, built from the
// worker's endpoint table: the Local routes are answered here, and every
// other route is admitted and proxied to a worker.
func (c *Coordinator) Handler() http.Handler {
	local := map[string]http.HandlerFunc{
		"/healthz":       c.handleHealthz,
		"/healthz/live":  c.ServeLive,
		"/healthz/ready": c.ServeReady,
		"/metrics":       c.handleMetrics,
	}
	return server.NewMux(func(rt server.Route) http.HandlerFunc {
		if rt.Key == server.Local {
			return local[rt.Path]
		}
		return c.proxy(rt)
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := c.ring.Members()
	status := "ok"
	if len(members) == 0 {
		status = "no-workers"
	} else if len(members) < len(c.cfg.Workers) {
		status = "degraded"
	}
	var breakers []breakerSnapshot
	for _, wk := range c.cfg.Workers {
		breakers = append(breakers, c.breakers.Get(wk).Snapshot(wk))
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"role":           "coordinator",
		"ready":          c.Ready(),
		"uptime_seconds": c.cfg.clock.Now().Sub(c.start).Seconds(),
		"ring_members":   members,
		"workers":        c.cfg.Workers,
		"breakers":       breakers,
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		server.WriteJSON(w, http.StatusOK, c.snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.writeProm(w)
}

// proxy returns the handler of a routed endpoint. It runs the admission
// ladder — drain → load shed (503 + Retry-After) → server.Admit's tenant
// check and quota (429 + Retry-After) — then reads the body up to the
// route's cap, keys the request by the route's Key, and forwards it:
// identical requests in flight share one upstream call.
func (c *Coordinator) proxy(rt server.Route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !c.Ready() {
			w.Header().Set("Retry-After", "5")
			server.WriteError(w, http.StatusServiceUnavailable, codeDraining,
				errors.New("cluster: coordinator is draining"))
			return
		}
		depth := c.inFlight.Add(1)
		defer c.inFlight.Add(-1)
		c.metrics.observeDepth(depth - 1)
		if c.cfg.MaxInFlight > 0 && depth > int64(c.cfg.MaxInFlight) {
			c.metrics.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			server.WriteError(w, http.StatusServiceUnavailable, codeShedding,
				fmt.Errorf("cluster: %d requests in flight, limit %d", depth, c.cfg.MaxInFlight))
			return
		}
		if !server.Admit(w, r, rt, c.quotas, &c.metrics.quotaDenied) {
			return
		}
		var body []byte
		if rt.MaxBody > 0 {
			var ok bool
			if body, ok = server.ReadBody(w, r, rt.MaxBody); !ok {
				return
			}
		}
		// key places the request on the ring; the upstream call is shared
		// under the same key, prefixed by the tenant when the reply is
		// per tenant. The key spaces cannot meet: a job key starts with a
		// benchmark name, a body key with the route's name and a path key
		// with "/".
		pathq, key := r.URL.Path, ""
		switch rt.Key {
		case server.JobKey:
			// A garbage job never travels the ring; the worker checks it
			// again (it owns the semantics).
			job, ok := server.DecodeJob(w, body)
			if !ok {
				return
			}
			key = job.Key()
		case server.BodyKey:
			// Only the worker, which owns the defence ladder, parses an
			// untrusted body. A byte-identical resubmission lands on the
			// same shard (and hits its cache).
			sum := sha256.Sum256(body)
			key = rt.Path[1:] + "|" + hex.EncodeToString(sum[:])
		default:
			// Every distinct artifact (figure, table, scale) is one ring
			// key, so repeated regenerations hit the same worker's cache.
			if r.URL.RawQuery != "" {
				pathq += "?" + r.URL.RawQuery
			}
			key = pathq
		}
		flightKey := key
		if rt.Tenant {
			flightKey = server.TenantOf(r) + "|" + key
		}
		resp, err := c.doShared(r.Context(), r.Method, pathq, r.Header, body, key, flightKey)
		c.reply(w, resp, err)
	}
}

// reply writes a buffered shard response (or the typed routing error)
// back to the client. The body is already whole, so the reply declares
// its length rather than going out chunked.
func (c *Coordinator) reply(w http.ResponseWriter, resp *shardResponse, err error) {
	if err != nil {
		switch {
		case errors.Is(err, errNoShard):
			w.Header().Set("Retry-After", "2")
			server.WriteError(w, http.StatusServiceUnavailable, codeNoWorkers, err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client went away; the status is a formality.
			server.WriteError(w, http.StatusServiceUnavailable, codeDraining, err)
		case errors.Is(err, errReplyTooLarge):
			server.WriteError(w, http.StatusBadGateway, codeReplyTooLarge, err)
		default:
			server.WriteError(w, http.StatusBadGateway, codeBadGateway, err)
		}
		return
	}
	for _, h := range forwardedHeaders {
		if v := resp.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Shard", resp.shard)
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	w.Write(resp.body) //nolint:errcheck // client went away; nothing to do
}
