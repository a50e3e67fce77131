package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpucmp/internal/metrics"
	"gpucmp/internal/sched"
	"gpucmp/internal/submit"
)

// Config configures a Coordinator. Zero fields take the documented
// defaults.
type Config struct {
	// Workers are the worker gpucmpd base URLs (e.g.
	// "http://127.0.0.1:8481"). They seed the ring; the readiness probe
	// loop removes workers whose /healthz/ready keeps failing to answer
	// 200 and re-adds them when they recover.
	Workers []string
	// VirtualNodes per ring member (default DefaultVirtualNodes).
	VirtualNodes int

	// HedgeQuantile is the observed-latency quantile that arms the hedge
	// timer (default 0.95): when a routed request has been in flight
	// longer than this quantile of recent requests, a second attempt is
	// fired at the next shard on the ring and the first response wins.
	HedgeQuantile float64
	// HedgeMinDelay / HedgeMaxDelay clamp the hedge delay (defaults 20ms
	// and 2s). Before enough latency samples exist, 100ms (clamped) is
	// used.
	HedgeMinDelay time.Duration
	HedgeMaxDelay time.Duration
	// HedgeDisabled turns hedging off (failover still happens).
	HedgeDisabled bool

	// MaxInFlight sheds load with 503 + Retry-After once this many
	// proxied requests are in flight (default 512; negative disables).
	MaxInFlight int
	// Quota throttles admissions per tenant (X-Tenant header, "anon"
	// when absent). The zero value admits everything.
	Quota sched.QuotaConfig
	// Breaker configures the per-shard circuit breakers.
	Breaker sched.BreakerConfig

	// ProbeInterval is the worker readiness-probe period (default 1s;
	// negative disables probing, leaving membership static).
	ProbeInterval time.Duration
	// Client is the HTTP client used for worker calls (default: a client
	// with sane connection pooling and no overall timeout — per-attempt
	// contexts bound each call).
	Client *http.Client
}

func (cfg Config) withDefaults() Config {
	if cfg.HedgeQuantile <= 0 || cfg.HedgeQuantile >= 1 {
		cfg.HedgeQuantile = 0.95
	}
	if cfg.HedgeMinDelay <= 0 {
		cfg.HedgeMinDelay = 20 * time.Millisecond
	}
	if cfg.HedgeMaxDelay <= 0 {
		cfg.HedgeMaxDelay = 2 * time.Second
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 512
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
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

	inFlight atomic.Int64
	notReady atomic.Bool

	breakers *metrics.Keyed[sched.Breaker]

	sfMu   sync.Mutex
	flight map[string]*proxyCall

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
		ring:     NewRing(cfg.VirtualNodes),
		quotas:   sched.NewTenantQuotas(cfg.Quota),
		metrics:  newMetrics(),
		lat:      &latencyTracker{},
		start:    time.Now(),
		breakers: metrics.NewKeyed(0, func() *sched.Breaker { return sched.NewBreaker(cfg.Breaker) }),
		flight:   make(map[string]*proxyCall),
		stop:     make(chan struct{}),
		misses:   make(map[string]int),
	}
	for _, w := range cfg.Workers {
		c.ring.Add(w)
		c.metrics.shards.Get(w) // pre-register so /metrics shows every shard from the start
	}
	return c
}

// Start launches the readiness-probe loop (no-op when probing is
// disabled). Call Close to stop it.
func (c *Coordinator) Start() {
	if c.cfg.ProbeInterval < 0 {
		return
	}
	c.probeWG.Add(1)
	go func() {
		defer c.probeWG.Done()
		ticker := time.NewTicker(c.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-ticker.C:
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

// SetReady flips the coordinator's own readiness (drain support).
func (c *Coordinator) SetReady(ready bool) { c.notReady.Store(!ready) }

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
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeInterval)
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
	d, ok := c.lat.quantile(c.cfg.HedgeQuantile)
	if !ok {
		d = 100 * time.Millisecond // cold start: no latency signal yet
	}
	if d < c.cfg.HedgeMinDelay {
		d = c.cfg.HedgeMinDelay
	}
	if d > c.cfg.HedgeMaxDelay {
		d = c.cfg.HedgeMaxDelay
	}
	return d
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
// the primary is slower than the hedge delay. The first terminal
// response wins; the loser's context is cancelled, which aborts its HTTP
// request, cancels the worker handler's context, and — via the
// scheduler's abandonment path — reclaims the remote worker goroutine.
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
		resp  *shardResponse
		err   error
		hedge bool
	}
	resCh := make(chan result, 2)
	var next atomic.Int32

	try := func(hedge bool) {
		var lastErr error
		moved := false
		for {
			i := int(next.Add(1)) - 1
			if i >= len(shards) {
				if lastErr == nil {
					lastErr = errNoShard
				}
				resCh <- result{err: lastErr, hedge: hedge}
				return
			}
			shard := shards[i]
			if moved {
				c.metrics.failovers.Add(1)
			}
			moved = true
			br := c.breakers.Get(shard)
			if ok, wait := br.Allow(); !ok {
				lastErr = fmt.Errorf("cluster: %w for shard %s (retry in %v)", sched.ErrBreakerOpen, shard, wait)
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
				resCh <- result{resp: resp, hedge: hedge}
				return
			}
			if errors.Is(err, errReplyTooLarge) {
				// The shard answered; the size belongs to the request.
				br.Success()
				resCh <- result{err: fmt.Errorf("cluster: shard %s: %w", shard, err), hedge: hedge}
				return
			}
			if actx.Err() != nil {
				// We lost the race (or the client left). The cancelled
				// attempt says nothing about the shard's health, so it
				// must not feed its breaker or error counters.
				resCh <- result{err: actx.Err(), hedge: hedge}
				return
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

	start := time.Now()
	go try(false)

	var hedgeCh <-chan time.Time
	if !c.cfg.HedgeDisabled && len(shards) > 1 {
		ht := time.NewTimer(c.hedgeDelay())
		defer ht.Stop()
		hedgeCh = ht.C
	}

	pending := 1
	var firstErr error
	for {
		select {
		case r := <-resCh:
			pending--
			if r.err == nil {
				c.lat.observe(time.Since(start))
				if r.hedge {
					c.metrics.hedgeWins.Add(1)
					c.metrics.shards.Get(r.resp.shard).hedgeWins.Add(1)
				}
				return r.resp, nil
			}
			if errors.Is(r.err, errReplyTooLarge) {
				return nil, r.err // a hedge would fetch the same reply
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-hedgeCh:
			hedgeCh = nil
			c.metrics.hedges.Add(1)
			pending++
			go try(true)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
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

// proxyCall is one in-flight forwarded request any number of identical
// requests wait on — the coordinator-level singleflight. When the last
// joiner's context is cancelled before completion, the upstream call is
// cancelled too, propagating abandonment all the way to the worker.
type proxyCall struct {
	done    chan struct{}
	resp    *shardResponse
	err     error
	waiters int
	cancel  context.CancelFunc
}

// doShared deduplicates identical in-flight forwards by sfKey. Identical
// concurrent requests share one upstream call and replay its buffered
// response.
func (c *Coordinator) doShared(ctx context.Context, method, pathq string, header http.Header, body []byte, key, sfKey string) (*shardResponse, error) {
	c.sfMu.Lock()
	if call, ok := c.flight[sfKey]; ok {
		call.waiters++
		c.sfMu.Unlock()
		c.metrics.dedupJoined.Add(1)
		return c.waitCall(ctx, call, sfKey)
	}
	upctx, cancel := context.WithCancel(context.Background())
	call := &proxyCall{done: make(chan struct{}), waiters: 1, cancel: cancel}
	c.flight[sfKey] = call
	c.sfMu.Unlock()

	go func() {
		call.resp, call.err = c.forward(upctx, method, pathq, header, body, key)
		c.sfMu.Lock()
		if c.flight[sfKey] == call {
			delete(c.flight, sfKey)
		}
		c.sfMu.Unlock()
		close(call.done)
		cancel()
	}()
	return c.waitCall(ctx, call, sfKey)
}

func (c *Coordinator) waitCall(ctx context.Context, call *proxyCall, sfKey string) (*shardResponse, error) {
	select {
	case <-call.done:
		return call.resp, call.err
	case <-ctx.Done():
		c.sfMu.Lock()
		call.waiters--
		if call.waiters <= 0 {
			if c.flight[sfKey] == call {
				delete(c.flight, sfKey)
			}
			call.cancel() // last joiner left: abandon the upstream call
		}
		c.sfMu.Unlock()
		return nil, ctx.Err()
	}
}

// ---- HTTP face ----------------------------------------------------------

// writeJSON writes v with status code, as one line of compact JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away; nothing to do
}

type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: code})
}

// Machine codes the coordinator adds on top of the worker vocabulary.
const (
	codeShedding   = "shedding"
	codeQuota      = "quota-exceeded"
	codeNoWorkers  = "no-workers"
	codeBadGateway = "bad-gateway"
	codeBadJSON    = "bad-json"
	codeBadTenant  = "bad-tenant"
	codeTooLarge   = "too-large"
	codeDraining   = "draining"
	codeMethodNA   = "method-not-allowed"

	// codeReplyTooLarge: a worker reply over maxProxyBody (a 502).
	codeReplyTooLarge = "reply-too-large"
)

var tenantRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// maxRunBody mirrors the worker's POST /run cap.
const maxRunBody = 1 << 16

// Handler returns the coordinator's routed HTTP handler.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/healthz/live", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "alive"})
	})
	mux.HandleFunc("/healthz/ready", c.handleReady)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/run", c.handleRun)
	mux.HandleFunc("/kernels", c.handleKernels)
	mux.HandleFunc("/figures/", c.handleProxyByPath)
	mux.HandleFunc("/devices", c.handleProxyByPath)
	mux.HandleFunc("/benchmarks", c.handleProxyByPath)
	mux.HandleFunc("/compiler/passes", c.handleProxyByPath)
	return mux
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := c.ring.Members()
	status := "ok"
	if len(members) == 0 {
		status = "no-workers"
	} else if len(members) < len(c.cfg.Workers) {
		status = "degraded"
	}
	var breakers []sched.BreakerSnapshot
	for _, wk := range c.cfg.Workers {
		breakers = append(breakers, c.breakers.Get(wk).Snapshot(wk))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"role":           "coordinator",
		"ready":          !c.notReady.Load(),
		"uptime_seconds": time.Since(c.start).Seconds(),
		"ring_members":   members,
		"workers":        c.cfg.Workers,
		"breakers":       breakers,
	})
}

func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	if c.notReady.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, c.snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	c.writeProm(w)
}

// admit runs the admission ladder shared by every routed endpoint:
// drain → load shed (503 + Retry-After) → tenant quota (429 +
// Retry-After). It returns a release func (always call it) and whether
// the request was admitted; on rejection the response has been written.
func (c *Coordinator) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if c.notReady.Load() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, codeDraining,
			errors.New("cluster: coordinator is draining"))
		return func() {}, false
	}
	depth := c.inFlight.Add(1)
	release = func() { c.inFlight.Add(-1) }
	c.metrics.observeDepth(depth - 1)
	if c.cfg.MaxInFlight > 0 && depth > int64(c.cfg.MaxInFlight) {
		c.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, codeShedding,
			fmt.Errorf("cluster: %d requests in flight, limit %d", depth, c.cfg.MaxInFlight))
		return release, false
	}
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anon"
	}
	if !tenantRe.MatchString(tenant) {
		writeError(w, http.StatusBadRequest, codeBadTenant,
			fmt.Errorf("X-Tenant must match %s", tenantRe))
		return release, false
	}
	if allowed, retry := c.quotas.Allow(tenant); !allowed {
		c.metrics.quotaDenied.Add(1)
		secs := int(retry.Seconds() + 0.999)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, codeQuota,
			fmt.Errorf("cluster: tenant %q is over its admission quota", tenant))
		return release, false
	}
	return release, true
}

// reply writes a buffered shard response (or the typed routing error)
// back to the client. The body is already whole, so the reply declares
// its length rather than going out chunked.
func (c *Coordinator) reply(w http.ResponseWriter, resp *shardResponse, err error) {
	if err != nil {
		switch {
		case errors.Is(err, errNoShard):
			w.Header().Set("Retry-After", "2")
			writeError(w, http.StatusServiceUnavailable, codeNoWorkers, err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client went away; the status is a formality.
			writeError(w, http.StatusServiceUnavailable, codeDraining, err)
		case errors.Is(err, errReplyTooLarge):
			writeError(w, http.StatusBadGateway, codeReplyTooLarge, err)
		default:
			writeError(w, http.StatusBadGateway, codeBadGateway, err)
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

func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, codeMethodNA,
			errors.New("POST a sched.Job body to /run"))
		return
	}
	release, ok := c.admit(w, r)
	defer release()
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRunBody))
	if err != nil {
		status, code := http.StatusBadRequest, codeBadJSON
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status, code = http.StatusRequestEntityTooLarge, codeTooLarge
		}
		writeError(w, status, code, fmt.Errorf("bad /run body: %w", err))
		return
	}
	var job sched.Job
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, fmt.Errorf("bad /run body: %w", err))
		return
	}
	// Admission validates the job shape here so a garbage body never
	// travels the ring; the worker re-validates (it owns the semantics).
	if err := job.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err)
		return
	}
	key := job.Key()
	resp, ferr := c.doShared(r.Context(), http.MethodPost, "/run", r.Header, body, key, "run|"+key)
	c.reply(w, resp, ferr)
}

func (c *Coordinator) handleKernels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, codeMethodNA,
			errors.New("POST a kernel program to /kernels"))
		return
	}
	release, ok := c.admit(w, r)
	defer release()
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, submit.DefaultLimits().MaxBody))
	if err != nil {
		status, code := http.StatusBadRequest, codeBadJSON
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status, code = http.StatusRequestEntityTooLarge, codeTooLarge
		}
		writeError(w, status, code, fmt.Errorf("bad /kernels body: %w", err))
		return
	}
	// Route by the body's SHA-256, never by its decoded program: only the
	// worker, which owns the defence ladder, parses an untrusted body. A
	// byte-identical resubmission lands on the same shard (and hits its
	// tenant cache); two different bodies never share an upstream reply.
	sum := sha256.Sum256(body)
	key := "kernels|" + hex.EncodeToString(sum[:])
	tenant := r.Header.Get("X-Tenant")
	resp, ferr := c.doShared(r.Context(), http.MethodPost, "/kernels", r.Header, body, key, tenant+"|"+key)
	c.reply(w, resp, ferr)
}

// handleProxyByPath routes idempotent GET endpoints by their full path +
// query: every distinct artifact (figure, table, scale) is one ring key,
// so repeated regenerations hit the same worker's cache.
func (c *Coordinator) handleProxyByPath(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, codeMethodNA,
			errors.New("GET only"))
		return
	}
	release, ok := c.admit(w, r)
	defer release()
	if !ok {
		return
	}
	pathq := r.URL.Path
	if r.URL.RawQuery != "" {
		pathq += "?" + r.URL.RawQuery
	}
	resp, ferr := c.doShared(r.Context(), http.MethodGet, pathq, r.Header, nil, pathq, "get|"+pathq)
	c.reply(w, resp, ferr)
}
