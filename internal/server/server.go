// Package server is the HTTP/JSON face of the experiment service: it maps
// the paper's artifact set (run one cell, list devices and benchmarks,
// regenerate any figure or table) onto a sched.Scheduler, so every request
// is cached, deduplicated and executed on the worker pool. cmd/gpucmpd is
// the daemon around it.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/coexec"
	"gpucmp/internal/compiler"
	"gpucmp/internal/core"
	"gpucmp/internal/fault"
	"gpucmp/internal/metrics"
	"gpucmp/internal/sched"
	"gpucmp/internal/sim"
	"gpucmp/internal/submit"
)

// maxRunBody caps POST /run and /coexec bodies; a sched.Job is a few
// hundred bytes.
const maxRunBody = 1 << 16

// Server holds the service's dependencies.
type Server struct {
	sched  *sched.Scheduler
	start  time.Time
	limits submit.Limits // POST /kernels resource bounds

	Readiness // the drain switch behind /healthz/ready

	// figureScale is the default problem-size divisor for /figures/*
	// (overridable per request with ?scale=N). The default keeps an
	// uncached figure regeneration interactive.
	figureScale int

	// Degradation counters: how /run requests were served when the live
	// path was unavailable.
	degradedStale atomic.Uint64 // stale last-known-good results served
	unavailable   atomic.Uint64 // 503s: nothing could be served

	// /kernels counters.
	gauntletRejects atomic.Uint64 // submissions refused before execution
	quotaDenials    atomic.Uint64 // submissions refused by tenant quota

	// POST /coexec dependencies: the (optional) fault seed and schedule
	// each run draws from, and the per-device shard counters exported on
	// /metrics.
	coexecSeed    uint64
	coexecFaults  *fault.Schedule
	coexecMetrics *coexec.Metrics
}

// Option customises a Server.
type Option func(*Server)

// WithFigureScale sets the default /figures/* problem-size divisor.
func WithFigureScale(scale int) Option {
	return func(s *Server) {
		if scale > 0 {
			s.figureScale = scale
		}
	}
}

// WithSubmitLimits overrides the POST /kernels resource bounds.
func WithSubmitLimits(lim submit.Limits) Option {
	return func(s *Server) { s.limits = lim }
}

// New wraps a scheduler in the HTTP service.
func New(s *sched.Scheduler, opts ...Option) *Server {
	srv := &Server{
		sched: s, start: time.Now(), figureScale: 4, limits: submit.DefaultLimits(),
		coexecMetrics: coexec.NewMetrics(),
	}
	for _, o := range opts {
		o(srv)
	}
	return srv
}

// Handler returns the worker's HTTP handler, built from the endpoint
// table. Every route that is not Local is admitted before its handler
// runs; only a route that takes a tenant is charged to the scheduler's
// tenant quotas.
func (s *Server) Handler() http.Handler {
	return NewMux(func(rt Route) http.HandlerFunc {
		var quotas *sched.TenantQuotas
		if rt.Tenant {
			quotas = s.sched.Quotas()
		}
		return func(w http.ResponseWriter, r *http.Request) {
			if rt.Key != Local && !Admit(w, r, rt, quotas, &s.quotaDenials) {
				return
			}
			rt.serve(s, w, r)
		}
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// /healthz reflects the per-device circuit breakers: the service is
	// "degraded" (still 200 — it serves fallbacks) while any breaker is
	// away from closed.
	breakers := s.sched.Breakers()
	status := "ok"
	for _, b := range breakers {
		if b.State != "closed" {
			status = "degraded"
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"ready":          s.Ready(),
		"uptime_seconds": time.Since(s.start).Seconds(),
		"breakers":       breakers,
	})
}

// deviceInfo is one /devices entry. The transfer fields parameterise the
// host<->device link (PCIe for the discrete cards, the cache hierarchy for
// the CPU) — what transfer-inclusive scheduling ranks devices by.
type deviceInfo struct {
	Name         string   `json:"name"`
	Vendor       string   `json:"vendor"`
	Kind         string   `json:"kind"`
	ComputeUnits int      `json:"compute_units"`
	PeakGFLOPS   float64  `json:"peak_gflops"`
	PeakGBs      float64  `json:"peak_gb_per_sec"`
	LinkGBs      float64  `json:"transfer_gb_per_sec"`
	LinkLatency  float64  `json:"transfer_latency_seconds"`
	Toolchains   []string `json:"toolchains"`
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	var out []deviceInfo
	for _, a := range arch.All() {
		var tcs []string
		for _, tc := range bench.Toolchains(a) {
			tcs = append(tcs, tc.Name)
		}
		out = append(out, deviceInfo{
			Name:         a.Name,
			Vendor:       a.Vendor,
			Kind:         fmt.Sprint(a.Kind),
			ComputeUnits: a.ComputeUnits,
			PeakGFLOPS:   a.TheoreticalPeakFLOPS(),
			PeakGBs:      a.TheoreticalPeakBandwidth(),
			LinkGBs:      a.Transfer.PCIeGBps,
			LinkLatency:  a.Transfer.LatencyS,
			Toolchains:   tcs,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// benchmarkInfo is one /benchmarks entry.
type benchmarkInfo struct {
	Name          string `json:"name"`
	Metric        string `json:"metric"`
	LowerIsBetter bool   `json:"lower_is_better"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	var out []benchmarkInfo
	for _, spec := range bench.Registry() {
		out = append(out, benchmarkInfo{Name: spec.Name, Metric: spec.Metric, LowerIsBetter: bench.LowerIsBetter(spec.Metric)})
	}
	WriteJSON(w, http.StatusOK, out)
}

// passInfo is one back-end pass entry of GET /compiler/passes.
type passInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// knobInfo is one front-end knob entry of GET /compiler/passes.
type knobInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// compilerInfo is the GET /compiler/passes reply: the pass-pipeline and
// knob vocabulary of the compiler, for clients building ablation requests
// or interpreting the pass_stats/remarks attached to /run results.
type compilerInfo struct {
	Passes       []passInfo `json:"passes"` // back-end pipeline, in order
	GapKnobs     []knobInfo `json:"gap_knobs"`
	FeatureKnobs []knobInfo `json:"feature_knobs"`
}

func (s *Server) handleCompilerPasses(w http.ResponseWriter, r *http.Request) {
	info := compilerInfo{}
	for _, p := range compiler.DefaultPasses() {
		info.Passes = append(info.Passes, passInfo{Name: p.Name, Description: p.Description})
	}
	for _, k := range compiler.GapKnobs() {
		info.GapKnobs = append(info.GapKnobs, knobInfo{Name: k.Name, Description: k.Description})
	}
	for _, k := range compiler.FeatureKnobs() {
		info.FeatureKnobs = append(info.FeatureKnobs, knobInfo{Name: k.Name, Description: k.Description})
	}
	WriteJSON(w, http.StatusOK, info)
}

// writeRun writes the POST /run reply for a scheduled result: the result
// plus how it was served, as compact JSON like every endpoint's reply. It
// is one line, shown here broken before each member:
//
//	{"result":{...}             res.JSON, unchanged
//	,"cached":true              exactly when served is "hit"
//	,"served":"hit"             "miss", "hit", "shared" or "degraded"
//	,"degraded":true            the rest only on a degraded reply:
//	,"degraded_mode":"stale"    always "stale"
//	,"degraded_cause":"..."     why the live path failed
//	}
//
// A degraded reply marks a result that did NOT come from this request's
// live (or cached-live) path: a stale last-known-good entry, served
// because the live path was unavailable.
//
// The result is neither encoded nor copied here: res.JSON was made once,
// when the execution completed, as json.Marshal of the result. The reply
// is a fixed head, those bytes and a short tail, written as three writes
// under one Content-Length. served and degradedMode come from fixed
// vocabularies and need no escaping; the cause is free text and gets it.
func writeRun(w http.ResponseWriter, res *sched.Encoded, served, degradedMode, degradedCause string) {
	const head = `{"result":`
	tail := make([]byte, 0, 112+len(degradedCause))
	tail = append(tail, `,"cached":`...)
	tail = strconv.AppendBool(tail, served == "hit")
	tail = append(tail, `,"served":"`...)
	tail = append(tail, served...)
	tail = append(tail, '"')
	if degradedMode != "" {
		tail = append(tail, `,"degraded":true,"degraded_mode":"`...)
		tail = append(tail, degradedMode...)
		tail = append(tail, '"')
		if degradedCause != "" {
			cause, _ := json.Marshal(degradedCause) // a string always encodes
			tail = append(tail, `,"degraded_cause":`...)
			tail = append(tail, cause...)
		}
	}
	tail = append(tail, "}\n"...)
	w.Header().Set("X-Cache", served)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(head)+len(res.JSON)+len(tail)))
	w.WriteHeader(http.StatusOK)
	// A write error means the client went away; there is nothing to do.
	io.WriteString(w, head) //nolint:errcheck
	w.Write(res.JSON)       //nolint:errcheck
	w.Write(tail)           //nolint:errcheck
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, ok := ReadBody(w, r, maxRunBody)
	if !ok {
		return
	}
	job, ok := DecodeJob(w, body)
	if !ok {
		return
	}
	res, outcome, err := s.sched.Do(r.Context(), job)
	if err != nil {
		if r.Context().Err() != nil {
			// The client went away; nothing sensible to serve.
			WriteError(w, http.StatusInternalServerError, codeInternal, err)
			return
		}
		switch sched.ClassOf(err) {
		case sched.Permanent:
			// Deterministic failure: degrading would mask a real answer.
			WriteError(w, http.StatusInternalServerError, codeInternal, err)
		default:
			// Transient, watchdog or breaker-open: walk the degradation
			// ladder instead of failing the request.
			s.serveDegraded(w, job, err)
		}
		return
	}
	writeRun(w, res, outcome.String(), "", "")
}

// serveDegraded is the tail of the degradation ladder (retry and breaker
// already happened inside the scheduler): stale cache entry → 503 +
// Retry-After. A degraded answer is exact or absent: simulation is
// deterministic, so the stale entry, read through the scheduler's
// verified lookup, holds the bytes a live run would produce. A served
// entry carries an explicit Degraded marker so clients can tell it from
// a live run.
func (s *Server) serveDegraded(w http.ResponseWriter, job sched.Job, cause error) {
	if res, ok := s.sched.Stale(job.Key()); ok {
		s.degradedStale.Add(1)
		writeRun(w, res, "degraded", "stale", cause.Error())
		return
	}
	// Nothing can be served. 503 with a Retry-After hint — the breaker's
	// remaining cool-down when that is the blocker.
	s.unavailable.Add(1)
	retryAfter := 5.0
	var boe *sched.BreakerOpenError
	if errors.As(cause, &boe) && boe.RetryAfter > 0 {
		retryAfter = boe.RetryAfter.Seconds()
	}
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter))))
	WriteError(w, http.StatusServiceUnavailable, codeUnavailable, cause)
}

// runner adapts the scheduler to the core.Runner the study functions take.
// Every figure cell becomes a canonical job: cached across requests and
// deduplicated against identical cells of concurrent requests.
func (s *Server) runner(r *http.Request) core.Runner {
	return func(a *arch.Device, toolchain string, spec bench.Spec, cfg bench.Config) (*bench.Result, error) {
		return s.sched.Run(r.Context(), sched.Job{
			Benchmark: spec.Name,
			Device:    a.Name,
			Toolchain: toolchain,
			Config:    cfg,
		})
	}
}

func (s *Server) scaleOf(r *http.Request) (int, error) {
	q := r.URL.Query().Get("scale")
	if q == "" {
		return s.figureScale, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad scale %q: want a positive integer", q)
	}
	return n, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.sched.Metrics()
	if r.URL.Query().Get("format") == "json" {
		WriteJSON(w, http.StatusOK, m.Snapshot())
		return
	}
	snap, hists := m.Snapshot(), m.Histograms()
	var latency, quantiles []metrics.Sample
	for _, name := range metrics.SortedKeys(hists) {
		h := hists[name]
		latency = append(latency, metrics.Hist(&h, "benchmark", name))
		quantiles = append(quantiles,
			metrics.Value(h.Quantile(0.50), "benchmark", name, "quantile", "0.5"),
			metrics.Value(h.Quantile(0.99), "benchmark", name, "quantile", "0.99"))
	}
	quotas := s.sched.Quotas().Snapshot()
	coex := s.coexecMetrics.Snapshot()
	devices := metrics.SortedKeys(coex)
	hits, misses := compiler.CompileCacheStats()
	es := sim.GlobalEngineStats()
	engines := []string{sim.EngineThreaded.String(), sim.EngineReference.String()}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metrics.Write(w, []metrics.Family{ //nolint:errcheck // client went away; nothing to do
		metrics.Counter("gpucmpd_jobs_total", "Jobs executed by the worker pool.", metrics.Value(snap.JobsRun)),
		metrics.Counter("gpucmpd_cache_hits_total", "Result-cache hits.", metrics.Value(snap.CacheHits)),
		metrics.Counter("gpucmpd_cache_misses_total", "Result-cache misses.", metrics.Value(snap.CacheMisses)),
		metrics.Counter("gpucmpd_dedup_shared_total", "Requests served by an identical in-flight job.", metrics.Value(snap.DedupShared)),
		metrics.Counter("gpucmpd_panics_total", "Jobs that panicked (isolated, not fatal).", metrics.Value(snap.Panics)),
		metrics.Counter("gpucmpd_timeouts_total", "Jobs that exceeded the job timeout.", metrics.Value(snap.Timeouts)),
		metrics.Gauge("gpucmpd_in_flight", "Jobs currently executing.", metrics.Value(snap.InFlight)),
		metrics.Gauge("gpucmpd_queue_depth", "Jobs queued but not yet executing.", metrics.Value(snap.QueueDepth)),
		metrics.Counter("gpucmpd_retries_total", "Transient job failures retried.", metrics.Value(snap.Retries)),
		metrics.Counter("gpucmpd_breaker_trips_total", "Circuit-breaker transitions to open.", metrics.Value(snap.BreakerTrips)),
		metrics.Counter("gpucmpd_breaker_denials_total", "Jobs rejected by an open circuit breaker.", metrics.Value(snap.BreakerDenials)),
		metrics.Counter("gpucmpd_watchdog_reclaims_total", "Timed-out attempts cancelled and reclaimed.", metrics.Value(snap.WatchdogReclaims)),
		metrics.Counter("gpucmpd_watchdog_leaks_total", "Timed-out attempts abandoned after the reclaim grace.", metrics.Value(snap.WatchdogLeaks)),
		metrics.Counter("gpucmpd_cache_corruptions_total", "Corrupted cache entries detected and evicted.", metrics.Value(snap.CacheCorruptions)),
		metrics.Counter("gpucmpd_abandons_total", "Executions cancelled because every waiter went away.", metrics.Value(snap.Abandons)),
		metrics.Counter("gpucmpd_warp_instrs_total", "Simulated warp instructions executed by completed jobs.", metrics.Value(snap.WarpInstrs)),
		metrics.Counter("gpucmpd_lane_instrs_total", "Simulated lane (thread) instructions executed by completed jobs.", metrics.Value(snap.LaneInstrs)),
		metrics.Counter("gpucmpd_degraded_total", "Requests served degraded, by fallback mode.",
			metrics.Value(s.degradedStale.Load(), "mode", "stale")),
		metrics.Counter("gpucmpd_unavailable_total", "Requests that got 503: no fallback could serve them.", metrics.Value(s.unavailable.Load())),
		metrics.Gauge("gpucmpd_breaker_state", "Per-device breaker state (0=closed, 1=half-open, 2=open).",
			metrics.Rows(s.sched.Breakers(), "device", func(b sched.BreakerSnapshot) (string, int) { return b.Device, sched.BreakerGauge(b.State) })...),
		metrics.Counter("gpucmpd_tasks_total", "Generic tenant tasks (kernel submissions) executed.", metrics.Value(snap.TasksRun)),
		metrics.Counter("gpucmpd_gauntlet_rejects_total", "Kernel submissions refused before execution.", metrics.Value(s.gauntletRejects.Load())),
		metrics.Counter("gpucmpd_quota_denials_total", "Kernel submissions refused by tenant quota.", metrics.Value(s.quotaDenials.Load())),
		metrics.Counter("gpucmpd_tenant_tasks_total", "Executions submitted per tenant.",
			metrics.Rows(snap.Tenants, "tenant", func(t sched.TenantActivity) (string, uint64) { return t.Tenant, t.Tasks })...).OmitEmpty(),
		metrics.Counter("gpucmpd_tenant_cache_hits_total", "Tenant-cache hits per tenant.",
			metrics.Rows(snap.Tenants, "tenant", func(t sched.TenantActivity) (string, uint64) { return t.Tenant, t.CacheHits })...).OmitEmpty(),
		metrics.Counter("gpucmpd_tenant_quota_allowed_total", "Submissions admitted by the tenant quota.",
			metrics.Rows(quotas, "tenant", func(q sched.TenantQuotaSnapshot) (string, uint64) { return q.Tenant, q.Allowed })...).OmitEmpty(),
		metrics.Counter("gpucmpd_tenant_quota_denied_total", "Submissions rejected by the tenant quota.",
			metrics.Rows(quotas, "tenant", func(q sched.TenantQuotaSnapshot) (string, uint64) { return q.Tenant, q.Denied })...).OmitEmpty(),
		metrics.Counter("gpucmpd_coexec_shards_total", "Co-execution shard attempts completed per device.",
			metrics.Rows(devices, "device", func(d string) (string, uint64) { return d, coex[d].Shards })...).OmitEmpty(),
		metrics.Counter("gpucmpd_coexec_retries_total", "Co-execution shard attempts retried per device.",
			metrics.Rows(devices, "device", func(d string) (string, uint64) { return d, coex[d].Retries })...).OmitEmpty(),
		metrics.Counter("gpucmpd_coexec_redistributions_total", "Shards completed on a device after first trying elsewhere.",
			metrics.Rows(devices, "device", func(d string) (string, uint64) { return d, coex[d].Redistributions })...).OmitEmpty(),
		metrics.Counter("gpucmpd_coexec_transfer_errors_total", "Injected transfer faults observed per device.",
			metrics.Rows(devices, "device", func(d string) (string, uint64) { return d, coex[d].TransferErrors })...).OmitEmpty(),
		metrics.Gauge("gpucmpd_coexec_device_lost", "Device was lost mid-run at least once (0/1).",
			metrics.Rows(devices, "device", func(d string) (string, uint64) { return d, coex[d].Lost })...).OmitEmpty(),
		metrics.Counter("gpucmpd_compile_cache_hits_total", "Compiled-kernel cache hits.", metrics.Value(hits)),
		metrics.Counter("gpucmpd_compile_cache_misses_total", "Compiled-kernel cache misses.", metrics.Value(misses)),
		metrics.Counter("gpucmpd_sim_superinstr_hits_total", "Fused-segment dispatches executed by the threaded sim engine.", metrics.Value(es.SuperinstrHits)),
		metrics.Counter("gpucmpd_sim_superinstr_ops_total", "Warp instructions retired inside fused segments.", metrics.Value(es.SuperinstrOps)),
		metrics.Counter("gpucmpd_sim_block_compiles_total", "Hot fused segments compiled to micro-op form.", metrics.Value(es.BlockCompiles)),
		metrics.Counter("gpucmpd_sim_engine_warp_instrs_total", "Warp instructions retired, by interpreter engine.",
			metrics.Rows(engines, "engine", func(e string) (string, int64) { return e, es.WarpInstrs[e] })...),
		metrics.Counter("gpucmpd_sim_engine_lane_instrs_total", "Lane (thread) instructions retired, by interpreter engine.",
			metrics.Rows(engines, "engine", func(e string) (string, int64) { return e, es.LaneInstrs[e] })...),
		metrics.Histograms("gpucmpd_job_seconds", "Job wall latency per benchmark.", latency...),
		metrics.Gauge("gpucmpd_job_quantile_seconds", "Estimated job-latency quantiles per benchmark.", quantiles...),
	})
}
