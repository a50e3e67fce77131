// Package sched is the concurrent experiment scheduler: a worker pool over
// canonical experiment jobs (benchmark, device, toolchain, config) with a
// content-keyed LRU result cache, deduplication of identical in-flight jobs
// (one Flight, shared with tenant tasks), per-job timeout, and panic
// isolation. It is the execution
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
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
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
// workers, a 4096-entry cache, no job timeout, four attempts per job, no
// fault injection.
type Options struct {
	// Workers is the pool size (defaults to GOMAXPROCS).
	Workers int
	// CacheSize caps the result LRU (defaults to 4096; negative disables
	// caching).
	CacheSize int
	// JobTimeout bounds one execution attempt (0 = unbounded). When it
	// fires, the watchdog cancels the attempt's simulated device and the
	// worker is reclaimed as soon as the warp loop hits its next
	// checkpoint; callers get an error classified as ErrWatchdog that
	// still wraps context.DeadlineExceeded.
	JobTimeout time.Duration
	// MaxAttempts bounds the attempts of one job, the first included
	// (<= 0 selects 4; 1 disables retry). Only Transient failures are
	// retried, at once: a launch fault is drawn by (seed, job key,
	// attempt), so waiting would change no outcome. Watchdog and
	// Permanent failures are never retried.
	MaxAttempts int
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

	// clock times every latency stamp, timeout, stall and quota
	// (nil = the wall clock).
	clock clock.Clock
}

// task is one execution on the worker pool: a /run job or a tenant
// function. Every Do or DoTask caller waiting on it holds a place on its
// call, whose context is cancelled when the last of them leaves before the
// task finishes.
type task struct {
	call  *Call[any]
	label string // the latency histogram row it is observed in
	// run executes the task under the call's context and counts it in
	// JobsRun or TasksRun. It returns what the callers get, the cache entry
	// to keep (nil: nothing to keep) and the error.
	run func(context.Context) (any, *entry, error)
	// store caches a good result, under Scheduler.mu.
	store func(*entry)
}

// Scheduler runs jobs on a fixed worker pool with caching and dedup.
type Scheduler struct {
	opts    Options
	queue   chan *task
	wg      sync.WaitGroup // workers
	subs    sync.WaitGroup // in-progress queue submissions
	metrics *Metrics

	mu      sync.Mutex
	closed  bool
	flight  *Flight[any]
	cache   *lruCache
	tenants map[string]*lruCache // per-tenant result caches for DoTask
	quotas  *TenantQuotas
}

// New starts a scheduler and its worker pool. Call Close to stop it.
func New(opts Options) *Scheduler {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 4096
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
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
	s := &Scheduler{
		opts:    opts,
		queue:   make(chan *task, 64),
		metrics: newMetrics(),
		tenants: make(map[string]*lruCache),
		quotas:  NewTenantQuotas(opts.Quota, opts.clock),
	}
	s.flight = NewFlight[any](&s.mu, &s.metrics.abandons)
	if opts.CacheSize > 0 {
		s.cache = newLRU(opts.CacheSize)
	}
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
// ctx cancels this caller's wait; the execution is abandoned only when every
// caller waiting on it has left.
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
	s.mu.Lock() // submit releases it
	v, o, err := s.submit(ctx, s.cache, key, func(call *Call[any]) *task { return s.jobTask(call, j, key) })
	e, _ := v.(*Encoded)
	return e, o, err
}

var errClosed = errors.New("sched: scheduler is closed")

// submit serves key from cache, joins the execution of key already in
// flight, or queues the task newTask makes for a new one. It is entered
// with s.mu held and releases it: finding nothing cached and then joining
// or starting an execution stay one critical section, or a request arriving
// as an execution completes would run it a second time.
func (s *Scheduler) submit(ctx context.Context, cache *lruCache, key string, newTask func(*Call[any]) *task) (any, Outcome, error) {
	e := s.cached(cache, key)
	if s.closed {
		s.mu.Unlock()
		return nil, Miss, errClosed
	}
	if e != nil {
		s.mu.Unlock()
		s.metrics.cacheHits.Add(1)
		return e.val, Hit, nil
	}
	call, leader := s.flight.Join(key)
	if !leader {
		s.mu.Unlock()
		s.metrics.dedupShared.Add(1)
		v, err := s.flight.Wait(ctx, call)
		return v, Shared, err
	}
	// Register the submission before releasing the lock so Close cannot
	// close the queue between our closed-check and the send below.
	s.subs.Add(1)
	s.mu.Unlock()

	t := newTask(call)
	s.metrics.cacheMisses.Add(1)
	s.metrics.queueDepth.Add(1)
	s.queue <- t
	s.subs.Done()
	v, err := s.flight.Wait(ctx, call)
	return v, Miss, err
}

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

// jobTask makes the task that executes j for the callers of call. A good
// result goes into the result cache.
func (s *Scheduler) jobTask(call *Call[any], j Job, key string) *task {
	return &task{call: call, label: j.Benchmark,
		run: func(ctx context.Context) (any, *entry, error) {
			res, err := s.execute(ctx, j, key)
			s.metrics.jobsRun.Add(1)
			return s.settle(key, res, err)
		},
		store: func(good *entry) {
			if s.cache != nil {
				cached := good
				if s.opts.Injector.CorruptStore(key) {
					// An injected corruption flips the stored checksum; the
					// next cache read detects the mismatch.
					cached = good.corrupted()
				}
				s.cache.add(cached)
			}
		},
	}
}

// settle turns a job's execution into what its callers get and what the
// cache keeps. Every completed execution is cached, including
// deterministic FL and ABT outcomes (they are as reproducible as OK ones).
// Infra errors — bad names, timeouts, panics — are not, so a transient
// failure is retried on the next request.
func (s *Scheduler) settle(key string, res *bench.Result, err error) (any, *entry, error) {
	if err != nil {
		return nil, nil, err
	}
	var wi, li int64
	for _, tr := range res.Traces {
		wi += tr.Dyn.Total
		li += tr.LaneInstrs
	}
	s.metrics.warpInstrs.Add(wi)
	s.metrics.laneInstrs.Add(li)
	// The one encoding of this result: made here, on the worker goroutine
	// and outside s.mu, and served from then on.
	enc, err := Encode(res)
	if err != nil {
		// Nothing can serve this result and no read could verify it, so it
		// is not cached; in-process callers still get it.
		return &Encoded{Result: res}, nil,
			wrapClass(Permanent, fmt.Errorf("sched: job %s: result cannot be served: %w", key, err))
	}
	return enc, newEntry(key, enc, enc.JSON), nil
}

// DoTask runs an arbitrary deterministic function on the worker pool with
// the same caching and sharing of identical in-flight work that Do gets,
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
	s.mu.Lock() // submit releases it
	v, o, err := s.submit(ctx, s.tenants[tenant], full, func(call *Call[any]) *task {
		return s.tenantTask(call, tenant, metric, full, fn)
	})
	if o == Hit {
		s.metrics.perTenant.Update(tenant, func(c *tenantCounters) { c.cacheHits++ })
	}
	return v, o, err
}

// tenantTask makes the task that runs fn for the callers of call. Its value
// is cached, on success only, in the tenant's own cache: a failed
// submission is re-evaluated if resubmitted.
func (s *Scheduler) tenantTask(call *Call[any], tenant, metric, key string, fn func(context.Context) (any, error)) *task {
	s.metrics.perTenant.Update(tenant, func(c *tenantCounters) { c.tasks++ })
	return &task{call: call, label: metric,
		run: func(ctx context.Context) (any, *entry, error) {
			v, err := safely(s.metrics, key, func() (any, error) { return fn(ctx) })
			s.metrics.tasksRun.Add(1)
			if err != nil {
				return v, nil, err
			}
			// A tenant value is handed out as a Go value, not as bytes; its
			// encoding exists for the checksum every later hit verifies. A
			// value that cannot be encoded cannot be verified, so it is not
			// cached.
			enc, err := json.Marshal(v)
			if err != nil {
				return v, nil, nil
			}
			return v, newEntry(key, v, enc), nil
		},
		store: func(good *entry) {
			if c := s.tenantCacheLocked(tenant); c != nil {
				c.add(good)
			}
		},
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
		var (
			v    any
			good *entry
			err  error
		)
		if ctx := t.call.Context(); ctx.Err() != nil {
			// Every caller left while the task sat in the queue: don't
			// spend a worker on it at all.
			err = abandoned(t.call.key)
		} else {
			s.metrics.inFlight.Add(1)
			start := s.opts.clock.Now()
			v, good, err = t.run(ctx)
			s.metrics.observe(t.label, s.opts.clock.Now().Sub(start))
			s.metrics.inFlight.Add(-1)
		}
		s.finish(t, v, good, err)
	}
}

// finish answers t's callers with v and err and, in the same critical
// section, caches good unless it is nil.
func (s *Scheduler) finish(t *task, v any, good *entry, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if good != nil {
		t.store(good)
	}
	s.flight.Finish(t.call, v, err)
}

// abandoned is the error of a task whose every caller left before it
// finished. Nobody reads it, and it is never cached.
func abandoned(key string) error {
	return wrapClass(Permanent, fmt.Errorf("sched: job %s: %w", key, ErrAbandoned))
}

// execute runs one job through the resilience ladder: per-attempt
// execution with panic isolation and watchdog timeout, retrying Transient
// failures at once. ctx is the job's call context: once it is cancelled
// nobody is waiting, and the job stops. The returned error, when non-nil,
// is classified (errors.Is against ErrTransient / ErrPermanent /
// ErrWatchdog).
func (s *Scheduler) execute(ctx context.Context, j Job, key string) (*bench.Result, error) {
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			// Stop before burning another attempt.
			return nil, abandoned(key)
		}
		res, err := s.executeAttempt(ctx, j, key)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, ErrAbandoned) {
			return nil, err
		}
		if class := ClassOf(err); class != Transient {
			return nil, wrapClass(class, err)
		}
		if attempt >= s.opts.MaxAttempts {
			// Retry budget exhausted: the job as a whole is permanently
			// failed, with the last transient cause still in the chain.
			return nil, wrapClass(Permanent,
				fmt.Errorf("sched: job %s: %d attempts exhausted: %w", key, attempt, err))
		}
		s.metrics.retries.Add(1)
	}
}

// executeAttempt runs one attempt on the worker goroutine, under a context
// that the JobTimeout watchdog cancels when it fires and that ctx cancels
// when every caller has left. Cancelling it cancels the attempt's
// simulated device, and the warp loop returns at its next checkpoint.
func (s *Scheduler) executeAttempt(ctx context.Context, j Job, key string) (*bench.Result, error) {
	actx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var watchdog clock.Timer
	if s.opts.JobTimeout > 0 {
		watchdog = s.opts.clock.AfterFunc(s.opts.JobTimeout, func() { cancel(context.DeadlineExceeded) })
	}
	res, err := s.executeIsolated(actx, j, key)
	if watchdog != nil && !watchdog.Stop() {
		// The watchdog fired: whatever the attempt returned is discarded
		// (never cached).
		s.metrics.timeouts.Add(1)
		s.metrics.watchdogReclaims.Add(1)
		return nil, wrapClass(Watchdog,
			fmt.Errorf("sched: job %s: %w after %v", key, context.DeadlineExceeded, s.opts.JobTimeout))
	}
	if ctx.Err() != nil {
		s.metrics.watchdogReclaims.Add(1)
		return nil, abandoned(key)
	}
	return res, err
}

func (s *Scheduler) executeIsolated(ctx context.Context, j Job, key string) (*bench.Result, error) {
	return safely(s.metrics, key, func() (*bench.Result, error) {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		// The fault-injection seam: chaos schedules fail, hang or reject
		// the attempt here, where the job meets the device.
		if f := s.opts.Injector.Launch(key); f != nil {
			switch f.Kind {
			case fault.KindHang:
				// Hang until the attempt is cancelled — the same reclaim
				// path a real runaway kernel exercises.
				<-ctx.Done()
				return nil, fmt.Errorf("sched: job %s: injected hang: %w", key, sim.ErrWatchdog)
			case fault.KindSlowLaunch:
				// A straggler, not a failure: stall (interruptibly, so
				// watchdog and abandonment still reclaim the worker) and
				// then run the attempt for real. This is the seam cluster
				// hedging is proven against.
				stalled := make(chan struct{})
				t := s.opts.clock.AfterFunc(f.Delay, func() { close(stalled) })
				select {
				case <-stalled:
				case <-ctx.Done():
					t.Stop()
					return nil, fmt.Errorf("sched: job %s: cancelled during injected stall: %w", key, sim.ErrWatchdog)
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
		if dev := bench.SimDevice(d); dev != nil {
			defer context.AfterFunc(ctx, dev.Cancel)()
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

// safely runs fn with panic isolation: a panicking job attempt or tenant
// task becomes an error on it alone instead of taking down the worker (and
// with it the pool).
func safely[T any](m *Metrics, key string, fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.panics.Add(1)
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("sched: %s panicked: %v\n%s", key, r, buf)
		}
	}()
	return fn()
}
