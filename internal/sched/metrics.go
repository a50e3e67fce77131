package sched

import (
	"sync/atomic"
	"time"

	"gpucmp/internal/metrics"
)

// latencyBuckets are the histogram upper bounds in seconds (the last
// bucket is +Inf). They span sub-millisecond cache-adjacent work up to
// multi-minute full-scale simulations.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Metrics is the scheduler's observability surface: monotonic counters,
// two gauges, and a per-benchmark latency histogram.
type Metrics struct {
	jobsRun     atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	dedupShared atomic.Uint64
	panics      atomic.Uint64
	timeouts    atomic.Uint64
	inFlight    atomic.Int64
	queueDepth  atomic.Int64

	// Resilience counters.
	retries          atomic.Uint64 // transient failures retried
	watchdogReclaims atomic.Uint64 // attempts cancelled mid-run
	cacheCorruptions atomic.Uint64 // corrupted cache entries detected+evicted
	abandons         atomic.Uint64 // tasks whose callers all left mid-flight

	// Throughput counters: simulated work completed, summed from the launch
	// traces of every successfully executed job (cache hits don't count —
	// they re-serve work already accounted for). Warp instructions are the
	// interpreter's unit of progress; lane instructions weight them by the
	// active lanes, so the pair exposes both simulator throughput and the
	// average SIMD efficiency of the workload.
	warpInstrs atomic.Int64
	laneInstrs atomic.Int64

	// Generic tenant tasks (the kernel-submission path).
	tasksRun atomic.Uint64

	perName   *metrics.Keyed[metrics.Histogram]
	perTenant *metrics.Keyed[tenantCounters]
}

// tenantCounters is one tenant's DoTask accounting (guarded by its table's lock).
type tenantCounters struct {
	tasks     uint64 // executions submitted on this tenant's behalf
	cacheHits uint64 // served from the tenant's private cache
}

// maxTenantCounters bounds the accounting map against tenant-name
// flooding; past it, new tenants are folded into an "other" row.
const maxTenantCounters = 1024

func newMetrics() *Metrics {
	return &Metrics{
		perName:   metrics.NewKeyed(0, func() *metrics.Histogram { return metrics.NewHistogram(latencyBuckets) }),
		perTenant: metrics.NewKeyed[tenantCounters](maxTenantCounters, nil),
	}
}

func (m *Metrics) observe(benchmark string, d time.Duration) {
	m.perName.Update(benchmark, func(h *metrics.Histogram) { h.Observe(d.Seconds()) })
}

// BenchmarkLatency is one benchmark's latency summary.
type BenchmarkLatency struct {
	Benchmark string  `json:"benchmark"`
	Count     uint64  `json:"count"`
	MeanSec   float64 `json:"mean_seconds"`
	P50Sec    float64 `json:"p50_seconds"`
	P99Sec    float64 `json:"p99_seconds"`
}

// Snapshot is a point-in-time copy of every metric, JSON-marshalable.
type Snapshot struct {
	JobsRun     uint64 `json:"jobs_run"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	DedupShared uint64 `json:"dedup_shared"`
	Panics      uint64 `json:"panics"`
	Timeouts    uint64 `json:"timeouts"`
	InFlight    int64  `json:"in_flight"`
	QueueDepth  int64  `json:"queue_depth"`

	Retries          uint64 `json:"retries"`
	WatchdogReclaims uint64 `json:"watchdog_reclaims"`
	CacheCorruptions uint64 `json:"cache_corruptions"`
	Abandons         uint64 `json:"abandons"`

	WarpInstrs int64 `json:"warp_instrs"`
	LaneInstrs int64 `json:"lane_instrs"`

	TasksRun uint64           `json:"tasks_run"`
	Tenants  []TenantActivity `json:"tenants,omitempty"`

	Latency []BenchmarkLatency `json:"latency"`
}

// TenantActivity is one tenant's DoTask accounting in a Snapshot.
type TenantActivity struct {
	Tenant    string `json:"tenant"`
	Tasks     uint64 `json:"tasks"`
	CacheHits uint64 `json:"cache_hits"`
}

// Snapshot copies the counters and summarises the per-benchmark
// histograms, sorted by benchmark name for stable output.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		JobsRun:     m.jobsRun.Load(),
		CacheHits:   m.cacheHits.Load(),
		CacheMisses: m.cacheMisses.Load(),
		DedupShared: m.dedupShared.Load(),
		Panics:      m.panics.Load(),
		Timeouts:    m.timeouts.Load(),
		InFlight:    m.inFlight.Load(),
		QueueDepth:  m.queueDepth.Load(),

		Retries:          m.retries.Load(),
		WatchdogReclaims: m.watchdogReclaims.Load(),
		CacheCorruptions: m.cacheCorruptions.Load(),
		Abandons:         m.abandons.Load(),

		WarpInstrs: m.warpInstrs.Load(),
		LaneInstrs: m.laneInstrs.Load(),

		TasksRun: m.tasksRun.Load(),
	}
	m.perTenant.Each(func(name string, c *tenantCounters) {
		s.Tenants = append(s.Tenants, TenantActivity{Tenant: name, Tasks: c.tasks, CacheHits: c.cacheHits})
	})
	m.perName.Each(func(name string, h *metrics.Histogram) {
		s.Latency = append(s.Latency, BenchmarkLatency{
			Benchmark: name,
			Count:     h.Count(),
			MeanSec:   h.Sum() / float64(h.Count()),
			P50Sec:    h.Quantile(0.50),
			P99Sec:    h.Quantile(0.99),
		})
	})
	return s
}

// Histograms returns a copy of the per-benchmark latency histograms.
func (m *Metrics) Histograms() map[string]metrics.Histogram {
	out := make(map[string]metrics.Histogram)
	m.perName.Each(func(name string, h *metrics.Histogram) { out[name] = h.Clone() })
	return out
}
