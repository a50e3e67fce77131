// Package sched is the concurrent experiment scheduler: a worker pool over
// canonical experiment jobs (benchmark, device, toolchain, config) with a
// content-keyed LRU result cache, singleflight deduplication of identical
// in-flight jobs, per-job timeout, and panic isolation. It is the execution
// engine behind cmd/gpucmpd and every /figures request, and the layer
// every later scaling step (sharding, remote workers, batch APIs) plugs
// into.
//
// The simulator is deterministic: a job's result depends only on its key,
// never on scheduling order, so caching and deduplication are semantically
// invisible — a parallel run reproduces a sequential run bit for bit.
package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
	"gpucmp/internal/metrics"
	"gpucmp/internal/pattern"
	"gpucmp/internal/sim"
)

// Job is one canonical experiment cell. Two jobs with equal Key() are the
// same experiment and share one execution and one cache slot.
type Job struct {
	Benchmark string       `json:"benchmark"`
	Device    string       `json:"device"`
	Toolchain string       `json:"toolchain"` // "cuda" or "opencl"
	Config    bench.Config `json:"config"`
}

// Key returns the canonical content key: every field that influences the
// result, in a fixed order. (bench.Config is a flat struct of scalars plus
// the pattern-schedule mangle, so the rendering below is a total encoding
// of it. Mangles contain no spaces, so the encoding stays unambiguous.)
func (j Job) Key() string {
	c := j.Config
	return fmt.Sprintf("%s|%s|%s|scale=%d tex=%t const=%t ua=%t ub=%t vspmv=%t ntranp=%t pat=%s",
		j.Benchmark, j.Toolchain, j.Device,
		c.Scale, c.UseTexture, c.UseConstant, c.UnrollA, c.UnrollB, c.VectorSPMV, c.NaiveTranspose,
		c.Pattern)
}

// Validate resolves the job's names without running it.
func (j Job) Validate() error {
	if _, err := bench.SpecByName(j.Benchmark); err != nil {
		return err
	}
	a, err := arch.Resolve(j.Device)
	if err != nil {
		return err
	}
	tc, err := bench.ToolchainNamed(j.Toolchain)
	if err != nil {
		return fmt.Errorf("sched: unknown toolchain %q (want cuda or opencl)", j.Toolchain)
	}
	if !tc.RunsOn(a) {
		return fmt.Errorf("sched: device %q is %s; CUDA runs on NVIDIA devices only", j.Device, a.Vendor)
	}
	if j.Config.Pattern != "" {
		if !bench.IsPatternBench(j.Benchmark) {
			return fmt.Errorf("sched: benchmark %q has no pattern-generated variant", j.Benchmark)
		}
		if _, err := pattern.ParseSchedule(j.Config.Pattern); err != nil {
			return fmt.Errorf("sched: bad pattern schedule: %w", err)
		}
	}
	return nil
}

// Outcome says how a Run was served.
type Outcome int

const (
	// Miss: this call executed the job.
	Miss Outcome = iota
	// Hit: served from the result cache.
	Hit
	// Shared: attached to an identical job already in flight.
	Shared
)

// String names the outcome for logs and HTTP responses.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Shared:
		return "shared"
	default:
		return "miss"
	}
}

// Options configures a Scheduler. The zero value is usable: GOMAXPROCS
// workers, a 4096-entry cache, no job timeout, default retry policy and
// circuit breakers, no fault injection.
type Options struct {
	// Workers is the pool size (defaults to GOMAXPROCS).
	Workers int
	// CacheSize caps the result LRU (defaults to 4096; negative disables
	// caching).
	CacheSize int
	// JobTimeout bounds one execution attempt (0 = unbounded). When it
	// fires, the watchdog cancels the attempt's simulated device and the
	// worker is reclaimed as soon as the warp loop hits its next
	// checkpoint; waiters get an error classified as ErrWatchdog that
	// still wraps context.DeadlineExceeded.
	JobTimeout time.Duration
	// ReclaimGrace is how long the watchdog waits for a cancelled attempt
	// to acknowledge before giving up and abandoning its goroutine
	// (default 2s; the warp loop checkpoints every sim.CheckpointInterval
	// instructions, so acknowledgement is normally immediate).
	ReclaimGrace time.Duration
	// Retry bounds the retries of Transient failures.
	Retry RetryPolicy
	// Breaker configures the per-device circuit breakers.
	Breaker BreakerConfig
	// Injector, when non-nil, injects deterministic faults at the device
	// seam (chaos testing).
	Injector *fault.Injector

	// Quota throttles untrusted per-tenant work submitted through DoTask.
	// The zero value disables throttling.
	Quota QuotaConfig
	// TenantCacheSize caps each tenant's private result cache (default 64;
	// negative disables tenant caching).
	TenantCacheSize int
	// MaxTenantCaches caps how many tenant caches exist at once (default
	// 1024); beyond it an arbitrary tenant's cache is dropped, bounding
	// memory against tenant-name flooding.
	MaxTenantCaches int

	// clock times every latency stamp, backoff, timeout, stall, breaker
	// and quota (nil = the wall clock).
	clock clock.Clock
}

// task is one in-flight execution that any number of callers wait on.
// Benchmark jobs carry job and produce res; generic tenant tasks carry fn
// and produce val.
type task struct {
	job    Job
	key    string
	tenant string                             // generic tasks only
	fn     func(context.Context) (any, error) // non-nil marks a generic task
	done   chan struct{}                      // closed when enc/err (or val/err) are final
	enc    *Encoded
	val    any
	err    error

	// Waiter accounting (guarded by Scheduler.mu): every Do/DoTask caller
	// attached to this task holds one reference. When the last waiter's
	// context is cancelled before the task completes, the task is
	// abandoned — abandon is closed, the in-flight execution's simulated
	// device is cancelled, and the worker is reclaimed instead of
	// computing a result nobody will read.
	waiters   int
	abandoned bool
	abandon   chan struct{}
}

// Scheduler runs jobs on a fixed worker pool with caching and dedup.
type Scheduler struct {
	opts    Options
	retry   RetryPolicy
	queue   chan *task
	wg      sync.WaitGroup // workers
	subs    sync.WaitGroup // in-progress queue submissions
	metrics *Metrics

	mu      sync.Mutex
	closed  bool
	flight  map[string]*task
	cache   *lruCache
	stale   *lruCache            // last known good result per key, for degraded serving
	tenants map[string]*lruCache // per-tenant result caches for DoTask
	quotas  *TenantQuotas

	breakers *metrics.Keyed[breaker]
}

// New starts a scheduler and its worker pool. Call Close to stop it.
func New(opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 4096
	}
	if opts.ReclaimGrace <= 0 {
		opts.ReclaimGrace = 2 * time.Second
	}
	if opts.TenantCacheSize == 0 {
		opts.TenantCacheSize = 64
	}
	if opts.MaxTenantCaches <= 0 {
		opts.MaxTenantCaches = 1024
	}
	if opts.clock == nil {
		opts.clock = clock.Real{}
	}
	opts.Breaker = opts.Breaker.withDefaults()
	s := &Scheduler{
		opts:    opts,
		retry:   opts.Retry.withDefaults(),
		queue:   make(chan *task, 64),
		metrics: newMetrics(),
		flight:  make(map[string]*task),
		tenants: make(map[string]*lruCache),
		quotas:  NewTenantQuotas(opts.Quota, opts.clock),
	}
	s.breakers = metrics.NewKeyed(0, func() *breaker { return &breaker{cfg: opts.Breaker, clock: opts.clock} })
	if opts.CacheSize > 0 {
		s.cache = newLRU(opts.CacheSize)
	}
	staleCap := opts.CacheSize
	if staleCap <= 0 {
		staleCap = 4096
	}
	s.stale = newLRU(staleCap)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops accepting jobs and waits for the workers to drain. Pending
// Run calls complete; new ones fail.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.subs.Wait() // let in-progress submissions reach the queue
	close(s.queue)
	s.wg.Wait()
}

// Run executes the job (or serves it from cache / an identical in-flight
// execution) and returns its result. The returned *bench.Result may be
// shared with other callers and with the cache: treat it as immutable.
// ctx cancels this caller's wait, not the execution itself.
func (s *Scheduler) Run(ctx context.Context, j Job) (*bench.Result, error) {
	e, _, err := s.Do(ctx, j)
	if e == nil {
		return nil, err
	}
	return e.Result, nil
}

// Do is Run plus the bytes the result is served as and how the job was
// served. A result encoding/json cannot represent (a NaN or infinite
// value) comes back with a Permanent error, no JSON and the Result still
// set — in-process callers can use it, nothing can serve it — and is not
// cached.
func (s *Scheduler) Do(ctx context.Context, j Job) (*Encoded, Outcome, error) {
	key := j.Key()

	s.mu.Lock()
	e := s.cached(s.cache, key)
	if s.closed {
		s.mu.Unlock()
		return nil, Miss, errClosed
	}
	if e != nil {
		s.mu.Unlock()
		s.metrics.cacheHits.Add(1)
		return e.val.(*Encoded), Hit, nil
	}
	if t, ok := s.flight[key]; ok {
		t.waiters++
		s.mu.Unlock()
		s.metrics.dedupShared.Add(1)
		return s.wait(ctx, t, Shared)
	}
	t := &task{job: j, key: key, done: make(chan struct{}), waiters: 1, abandon: make(chan struct{})}
	s.flight[key] = t
	// Register the submission before releasing the lock so Close cannot
	// close the queue between our closed-check and the send below.
	s.subs.Add(1)
	s.mu.Unlock()

	s.metrics.cacheMisses.Add(1)
	s.metrics.queueDepth.Add(1)
	s.queue <- t
	s.subs.Done()
	return s.wait(ctx, t, Miss)
}

var errClosed = errors.New("sched: scheduler is closed")

// cached returns the entry c holds under key once its checksum has been
// verified over the stored bytes, or nil. The caller holds s.mu and holds
// it again on return, so finding nothing cached and then joining or
// starting an execution stay one critical section; in between, s.mu is
// released while the checksum runs — entries are immutable, so concurrent
// hits never wait for each other's hashing. A corrupted entry is evicted
// and counted (once, by whichever reader removes it) and the lookup starts
// over. A nil cache holds nothing.
func (s *Scheduler) cached(c *lruCache, key string) *entry {
	for {
		e := c.get(key)
		if e == nil {
			return nil
		}
		s.mu.Unlock()
		ok := e.intact()
		s.mu.Lock()
		if ok {
			return e
		}
		if c.remove(e) {
			s.metrics.cacheCorruptions.Add(1)
		}
	}
}

func (s *Scheduler) wait(ctx context.Context, t *task, o Outcome) (*Encoded, Outcome, error) {
	select {
	case <-t.done:
		return t.enc, o, t.err
	case <-ctx.Done():
		s.leave(t)
		return nil, o, ctx.Err()
	}
}

// leave drops one waiter reference from a task whose caller's context was
// cancelled. When the last waiter leaves before the task completes, the
// task is abandoned: it is removed from the flight map (so a later
// identical request starts fresh instead of attaching to a doomed
// execution) and abandon is closed, which cancels the in-flight attempt's
// simulated device. This is how client disconnects and hedge-loser
// cancellation propagate end-to-end into sim cancellation.
func (s *Scheduler) leave(t *task) {
	s.mu.Lock()
	t.waiters--
	select {
	case <-t.done:
		// Completed concurrently with the cancellation; nothing to cancel.
		s.mu.Unlock()
		return
	default:
	}
	last := t.waiters <= 0 && !t.abandoned
	if last {
		t.abandoned = true
		if s.flight[t.key] == t {
			delete(s.flight, t.key)
		}
	}
	s.mu.Unlock()
	if last {
		s.metrics.abandons.Add(1)
		close(t.abandon)
	}
}

// Stale returns the last known good result for a key, if any — the
// degraded-serving fallback when the live path is unavailable. Stale
// entries are verified like any other, so a corrupted one reads as absent.
func (s *Scheduler) Stale(key string) (*Encoded, bool) {
	s.mu.Lock()
	e := s.cached(s.stale, key)
	s.mu.Unlock()
	if e == nil {
		return nil, false
	}
	return e.val.(*Encoded), true
}

// DoTask runs an arbitrary deterministic function on the worker pool with
// the same singleflight deduplication and caching the benchmark path gets,
// namespaced per tenant: two tenants submitting identical work get
// separate cache entries and separate executions, so neither can observe
// (via hit/shared outcomes or timing) what the other submitted. fn runs
// with panic isolation; its return value is cached only on success.
// metric labels the latency histogram bucket the execution lands in.
//
// fn receives a context that is cancelled when every caller waiting on
// this execution has gone away (client disconnect, hedge-loser
// cancellation): fn should honour it so the worker is reclaimed instead
// of computing an abandoned result.
//
// The cached value is shared between callers: treat it as immutable.
func (s *Scheduler) DoTask(ctx context.Context, tenant, metric, key string, fn func(context.Context) (any, error)) (any, Outcome, error) {
	full := "tenant/" + tenant + "|" + key

	s.mu.Lock()
	e := s.cached(s.tenants[tenant], full)
	if s.closed {
		s.mu.Unlock()
		return nil, Miss, errClosed
	}
	if e != nil {
		s.mu.Unlock()
		s.metrics.cacheHits.Add(1)
		s.metrics.perTenant.Update(tenant, func(c *tenantCounters) { c.cacheHits++ })
		return e.val, Hit, nil
	}
	if t, ok := s.flight[full]; ok {
		t.waiters++
		s.mu.Unlock()
		s.metrics.dedupShared.Add(1)
		return s.waitTask(ctx, t, Shared)
	}
	t := &task{key: full, tenant: tenant, job: Job{Benchmark: metric}, fn: fn,
		done: make(chan struct{}), waiters: 1, abandon: make(chan struct{})}
	s.flight[full] = t
	s.subs.Add(1)
	s.mu.Unlock()

	s.metrics.cacheMisses.Add(1)
	s.metrics.perTenant.Update(tenant, func(c *tenantCounters) { c.tasks++ })
	s.metrics.queueDepth.Add(1)
	s.queue <- t
	s.subs.Done()
	return s.waitTask(ctx, t, Miss)
}

func (s *Scheduler) waitTask(ctx context.Context, t *task, o Outcome) (any, Outcome, error) {
	select {
	case <-t.done:
		return t.val, o, t.err
	case <-ctx.Done():
		s.leave(t)
		return nil, o, ctx.Err()
	}
}

// tenantCacheLocked returns (creating on demand) the tenant's cache.
// Caller holds s.mu.
func (s *Scheduler) tenantCacheLocked(tenant string) *lruCache {
	if s.opts.TenantCacheSize < 0 {
		return nil
	}
	c, ok := s.tenants[tenant]
	if !ok {
		if len(s.tenants) >= s.opts.MaxTenantCaches {
			// Bound memory against tenant-name flooding: drop an arbitrary
			// tenant's cache (map iteration order). Correctness is
			// unaffected — caches only save recomputation.
			for name := range s.tenants {
				delete(s.tenants, name)
				break
			}
		}
		c = newLRU(s.opts.TenantCacheSize)
		s.tenants[tenant] = c
	}
	return c
}

// Quotas returns the per-tenant submission quota table (never nil; with
// no Options.Quota configured it always allows).
func (s *Scheduler) Quotas() *TenantQuotas { return s.quotas }

// TenantCacheLen returns the number of results cached for one tenant.
func (s *Scheduler) TenantCacheLen(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.tenants[tenant]; ok {
		return c.len()
	}
	return 0
}

// Metrics exposes the scheduler's counters.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// CacheLen returns the number of cached results.
func (s *Scheduler) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return 0
	}
	return s.cache.len()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.metrics.queueDepth.Add(-1)
		select {
		case <-t.abandon:
			// Every waiter left while the task sat in the queue: don't
			// spend a worker on it at all.
			t.err = wrapClass(Permanent, fmt.Errorf("sched: job %s: %w", t.key, ErrAbandoned))
			close(t.done)
			continue
		default:
		}
		s.metrics.inFlight.Add(1)
		if t.fn != nil {
			s.runTenantTask(t)
			s.metrics.inFlight.Add(-1)
			continue
		}
		start := s.opts.clock.Now()
		res, err := s.execute(t.job, t.key, t.abandon)
		s.metrics.observe(t.job.Benchmark, s.opts.clock.Now().Sub(start))
		s.metrics.inFlight.Add(-1)
		s.metrics.jobsRun.Add(1)
		s.complete(t, res, err)
	}
}

// complete settles a benchmark task with the outcome of its execution:
// encode, cache, release the waiters.
func (s *Scheduler) complete(t *task, res *bench.Result, err error) {
	if err == nil && res != nil {
		var wi, li int64
		for _, tr := range res.Traces {
			wi += tr.Dyn.Total
			li += tr.LaneInstrs
		}
		s.metrics.warpInstrs.Add(wi)
		s.metrics.laneInstrs.Add(li)
	}
	// Cache every completed execution, including deterministic FL and
	// ABT outcomes (they are as reproducible as OK ones). Infra
	// errors — bad names, timeouts, panics — are not cached, so a
	// transient failure is retried on the next request.
	var good *entry
	if err == nil {
		// The one encoding of this result: made here, on the worker
		// goroutine and outside s.mu, and served from then on.
		if t.enc, err = Encode(res); err == nil {
			good = newEntry(t.key, t.enc, t.enc.JSON)
		} else {
			// Nothing can serve this result and no read could verify it,
			// so it is not cached; in-process callers still get it.
			t.enc = &Encoded{Result: res}
			err = wrapClass(Permanent, fmt.Errorf("sched: job %s: result cannot be served: %w", t.key, err))
		}
	}
	t.err = err

	s.mu.Lock()
	if s.flight[t.key] == t {
		// An abandoned task was already unlinked — and its key may now
		// belong to a fresh task — so only remove our own registration.
		delete(s.flight, t.key)
	}
	if good != nil {
		if s.cache != nil {
			cached := good
			if s.opts.Injector.CorruptStore(t.key) {
				// An injected corruption flips the stored checksum; the
				// next cache read detects the mismatch.
				cached = good.corrupted()
			}
			s.cache.add(cached)
		}
		// Remember the last known good result for degraded serving.
		s.stale.add(good)
	}
	s.mu.Unlock()
	close(t.done)
}

// runTenantTask executes one generic DoTask submission with panic
// isolation and caches its value — on success only — under the tenant's
// namespace. Errors are never cached: a failed submission is re-evaluated
// if resubmitted. The fn context is cancelled if every waiter abandons
// the task mid-execution, so a cooperative fn can stop early.
func (s *Scheduler) runTenantTask(t *task) {
	ctx, cancel := context.WithCancel(context.Background())
	abandonDone := make(chan struct{})
	go func() {
		select {
		case <-t.abandon:
			cancel()
		case <-abandonDone:
		}
	}()
	start := s.opts.clock.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				s.metrics.panics.Add(1)
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				t.val, t.err = nil, fmt.Errorf("sched: task %s panicked: %v\n%s", t.key, r, buf)
			}
		}()
		t.val, t.err = t.fn(ctx)
	}()
	close(abandonDone)
	cancel()
	s.metrics.observe(t.job.Benchmark, s.opts.clock.Now().Sub(start))
	s.metrics.tasksRun.Add(1)
	// A tenant value is handed out as a Go value, not as bytes; its
	// encoding exists for the checksum every later hit verifies. A value
	// that cannot be encoded cannot be verified, so it is not cached.
	var good *entry
	if t.err == nil {
		if enc, err := json.Marshal(t.val); err == nil {
			good = newEntry(t.key, t.val, enc)
		}
	}

	s.mu.Lock()
	if s.flight[t.key] == t {
		delete(s.flight, t.key)
	}
	if good != nil {
		if c := s.tenantCacheLocked(t.tenant); c != nil {
			c.add(good)
		}
	}
	s.mu.Unlock()
	close(t.done)
}

// execute resolves and runs one job through the resilience ladder: per-
// device circuit breaker, then per-attempt execution with panic isolation
// and watchdog timeout, with capped exponential backoff between retries of
// Transient failures. The returned error, when non-nil, is classified
// (errors.Is against ErrTransient / ErrPermanent / ErrWatchdog /
// ErrBreakerOpen).
func (s *Scheduler) execute(j Job, key string, abandon <-chan struct{}) (*bench.Result, error) {
	br := s.breakerFor(j.Device)
	for attempt := 1; ; attempt++ {
		select {
		case <-abandon:
			// Nobody is waiting any more: stop before burning another
			// attempt. Abandonment says nothing about device health, so it
			// never touches the breaker.
			return nil, wrapClass(Permanent, fmt.Errorf("sched: job %s: %w", key, ErrAbandoned))
		default:
		}
		if br != nil {
			if ok, wait := br.allow(); !ok {
				s.metrics.breakerDenials.Add(1)
				return nil, &BreakerOpenError{Device: j.Device, RetryAfter: wait}
			}
		}
		res, err := s.executeAttempt(j, key, abandon)
		if err == nil {
			if br != nil {
				br.success()
			}
			return res, nil
		}
		if errors.Is(err, ErrAbandoned) {
			return nil, err
		}
		class := ClassOf(err)
		if br != nil && class != Permanent {
			// Only device-health failures (transient, watchdog) count
			// toward tripping: a malformed job says nothing about the
			// device.
			if br.failure() {
				s.metrics.breakerTrips.Add(1)
			}
		}
		if class != Transient {
			return nil, wrapClass(class, err)
		}
		if attempt >= s.retry.MaxAttempts {
			// Retry budget exhausted: the job as a whole is permanently
			// failed, with the last transient cause still in the chain.
			return nil, wrapClass(Permanent,
				fmt.Errorf("sched: job %s: %d attempts exhausted: %w", key, attempt, err))
		}
		s.metrics.retries.Add(1)
		backoff := s.opts.clock.NewTimer(s.retry.backoff(key, attempt))
		select {
		case <-backoff.C():
		case <-abandon:
			// Every waiter left during the backoff: free the worker now;
			// the loop head reports the abandonment.
			backoff.Stop()
		}
	}
}

// attemptCtl is the kill switch of one execution attempt. The attempt
// publishes its simulated device as soon as it exists; the watchdog closes
// cancel and cancels the device, and the warp loop aborts at its next
// checkpoint.
type attemptCtl struct {
	once   sync.Once
	cancel chan struct{}
	dev    atomic.Pointer[sim.Device]
}

func newAttemptCtl() *attemptCtl { return &attemptCtl{cancel: make(chan struct{})} }

// kill cancels the attempt: idempotent, safe from any goroutine.
func (c *attemptCtl) kill() {
	c.once.Do(func() { close(c.cancel) })
	if d := c.dev.Load(); d != nil {
		d.Cancel()
	}
}

// publish registers the attempt's device. Re-checking cancel afterwards
// closes the race with a kill that ran between the load in kill and this
// store: the attempt then cancels its own device.
func (c *attemptCtl) publish(d *sim.Device) {
	c.dev.Store(d)
	select {
	case <-c.cancel:
		d.Cancel()
	default:
	}
}

// executeAttempt runs one attempt under the watchdog and the abandonment
// monitor. On timeout — or when every waiter has abandoned the task — it
// cancels the attempt's device and waits up to ReclaimGrace for the
// goroutine to acknowledge: the worker is reclaimed, not leaked.
func (s *Scheduler) executeAttempt(j Job, key string, abandon <-chan struct{}) (*bench.Result, error) {
	if s.opts.JobTimeout <= 0 && abandon == nil {
		return s.executeIsolated(j, key, nil)
	}
	type outcome struct {
		res *bench.Result
		err error
	}
	ctl := newAttemptCtl()
	ch := make(chan outcome, 1)
	go func() {
		res, err := s.executeIsolated(j, key, ctl)
		ch <- outcome{res, err}
	}()
	var timeout <-chan time.Time
	if s.opts.JobTimeout > 0 {
		timer := s.opts.clock.NewTimer(s.opts.JobTimeout)
		defer timer.Stop()
		timeout = timer.C()
	}
	reclaim := func() {
		ctl.kill()
		grace := s.opts.clock.NewTimer(s.opts.ReclaimGrace)
		defer grace.Stop()
		select {
		case <-ch:
			// The cancelled attempt acknowledged: its late result is
			// discarded (never cached) and the goroutine is gone.
			s.metrics.watchdogReclaims.Add(1)
		case <-grace.C():
			// The attempt ignored cancellation (e.g. stuck outside the
			// warp loop). Abandon its goroutine and record the leak.
			s.metrics.watchdogLeaks.Add(1)
		}
	}
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timeout:
		s.metrics.timeouts.Add(1)
		reclaim()
		return nil, wrapClass(Watchdog,
			fmt.Errorf("sched: job %s: %w after %v", key, context.DeadlineExceeded, s.opts.JobTimeout))
	case <-abandon:
		reclaim()
		return nil, wrapClass(Permanent, fmt.Errorf("sched: job %s: %w", key, ErrAbandoned))
	}
}

func (s *Scheduler) executeIsolated(j Job, key string, ctl *attemptCtl) (*bench.Result, error) {
	return s.safely(key, func() (*bench.Result, error) {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		// The fault-injection seam: chaos schedules fail, hang or reject
		// the attempt here, where the job meets the device.
		if f := s.opts.Injector.Launch(key); f != nil {
			switch f.Kind {
			case fault.KindHang:
				if ctl != nil {
					// Hang until the watchdog cancels the attempt — the
					// same reclaim path a real runaway kernel exercises.
					<-ctl.cancel
				}
				return nil, fmt.Errorf("sched: job %s: injected hang: %w", key, sim.ErrWatchdog)
			case fault.KindSlowLaunch:
				// A straggler, not a failure: stall (interruptibly, so
				// watchdog and abandonment still reclaim the worker) and
				// then run the attempt for real. This is the seam cluster
				// hedging is proven against.
				timer := s.opts.clock.NewTimer(f.Delay)
				if ctl != nil {
					select {
					case <-timer.C():
					case <-ctl.cancel:
						timer.Stop()
						return nil, fmt.Errorf("sched: job %s: cancelled during injected stall: %w", key, sim.ErrWatchdog)
					}
				} else {
					<-timer.C()
				}
			default:
				return nil, f.Err
			}
		}
		spec, _ := bench.SpecByName(j.Benchmark)
		a, _ := arch.Resolve(j.Device)
		d, err := bench.NewDriver(j.Toolchain, a)
		if err != nil {
			return nil, err
		}
		if ctl != nil {
			if dev := bench.SimDevice(d); dev != nil {
				ctl.publish(dev)
			}
		}
		res, err := spec.Run(d, j.Config)
		// A watchdog kill surfaces from the benchmark harness as an ABT
		// result with a nil Go error (the launch-failure convention).
		// Convert it to a typed error so it is never cached as a
		// deterministic outcome and classifies as Watchdog.
		if err == nil && res != nil && res.Err != nil && errors.Is(res.Err, sim.ErrWatchdog) {
			return nil, fmt.Errorf("sched: job %s: %w", key, res.Err)
		}
		return res, err
	})
}

// safely runs fn with panic isolation: a panicking job becomes an error on
// that job alone instead of taking down the worker (and with it the pool).
func (s *Scheduler) safely(key string, fn func() (*bench.Result, error)) (res *bench.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			res, err = nil, fmt.Errorf("sched: job %s panicked: %v\n%s", key, r, buf)
		}
	}()
	return fn()
}
