package cluster

import (
	"io"
	"sync"
	"sync/atomic"

	"gpucmp/internal/metrics"
	"gpucmp/internal/sched"
)

// depthBuckets are the queue-depth histogram's upper bounds, in requests
// (a +Inf bucket follows).
var depthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// shardCounters is one worker's routing accounting.
type shardCounters struct {
	requests  atomic.Uint64 // attempts sent to this shard
	errors    atomic.Uint64 // failed attempts (transport error or failover-class status)
	hedges    atomic.Uint64 // hedge attempts fired at this shard
	hedgeWins atomic.Uint64 // hedge attempts that beat the primary
}

// Metrics is the coordinator's observability surface: per-shard routing
// counters, fleet-level admission counters, a ring-membership gauge, and
// a queue-depth histogram (the number of proxied requests already in
// flight, observed at each admission).
type Metrics struct {
	routed      atomic.Uint64 // requests admitted and routed
	shed        atomic.Uint64 // requests refused with 503 (overload)
	quotaDenied atomic.Uint64 // requests refused with 429 (tenant quota)
	failovers   atomic.Uint64 // attempts moved to the next shard
	hedges      atomic.Uint64 // hedge attempts fired
	hedgeWins   atomic.Uint64 // hedges whose response won
	dedupJoined atomic.Uint64 // requests served by an identical in-flight proxy call
	noShard     atomic.Uint64 // requests that found an empty ring

	shards *metrics.Keyed[shardCounters]

	mu    sync.Mutex
	depth *metrics.Histogram // in-flight requests at admission
}

func newMetrics() *Metrics {
	return &Metrics{
		shards: metrics.NewKeyed[shardCounters](0, nil),
		depth:  metrics.NewHistogram(depthBuckets),
	}
}

// observeDepth records the coordinator's in-flight request count at one
// admission into the queue-depth histogram.
func (m *Metrics) observeDepth(depth int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.depth.Observe(float64(depth))
}

// ShardSnapshot is one shard's counters at snapshot time.
type ShardSnapshot struct {
	Shard     string `json:"shard"`
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	InRing    bool   `json:"in_ring"`
	Breaker   string `json:"breaker"`
}

// Snapshot is a point-in-time copy of the coordinator's metrics.
type Snapshot struct {
	Routed      uint64 `json:"routed"`
	Shed        uint64 `json:"shed"`
	QuotaDenied uint64 `json:"quota_denied"`
	Failovers   uint64 `json:"failovers"`
	Hedges      uint64 `json:"hedges"`
	HedgeWins   uint64 `json:"hedge_wins"`
	DedupJoined uint64 `json:"dedup_joined"`
	NoShard     uint64 `json:"no_shard"`
	RingMembers int    `json:"ring_members"`

	QueueDepthCount uint64  `json:"queue_depth_count"`
	QueueDepthP50   float64 `json:"queue_depth_p50"`
	QueueDepthP99   float64 `json:"queue_depth_p99"`

	Shards []ShardSnapshot             `json:"shards"`
	Quotas []sched.TenantQuotaSnapshot `json:"quotas,omitempty"`

	depth metrics.Histogram // the copy QueueDepth* came from, for /metrics
}

// snapshot copies the coordinator's metrics, with ring membership and
// breaker state per shard.
func (c *Coordinator) snapshot() Snapshot {
	m := c.metrics
	s := Snapshot{
		Routed:      m.routed.Load(),
		Shed:        m.shed.Load(),
		QuotaDenied: m.quotaDenied.Load(),
		Failovers:   m.failovers.Load(),
		Hedges:      m.hedges.Load(),
		HedgeWins:   m.hedgeWins.Load(),
		DedupJoined: m.dedupJoined.Load(),
		NoShard:     m.noShard.Load(),
		RingMembers: c.ring.Len(),
		Quotas:      c.quotas.Snapshot(),
	}
	m.mu.Lock()
	s.depth = m.depth.Clone()
	m.mu.Unlock()
	s.QueueDepthCount = s.depth.Count()
	if s.QueueDepthCount > 0 {
		s.QueueDepthP50 = s.depth.Quantile(0.50)
		s.QueueDepthP99 = s.depth.Quantile(0.99)
	}
	m.shards.Each(func(name string, sc *shardCounters) {
		s.Shards = append(s.Shards, ShardSnapshot{
			Shard:     name,
			Requests:  sc.requests.Load(),
			Errors:    sc.errors.Load(),
			Hedges:    sc.hedges.Load(),
			HedgeWins: sc.hedgeWins.Load(),
			InRing:    c.ring.Contains(name),
			Breaker:   c.breakers.Get(name).State().String(),
		})
	})
	return s
}

// writeProm renders the fleet metrics in Prometheus exposition format,
// matching the gpucmpd_* metric style of internal/server.
func (c *Coordinator) writeProm(w io.Writer) {
	s := c.snapshot()
	metrics.Write(w, []metrics.Family{ //nolint:errcheck // client went away; nothing to do
		metrics.Counter("gpucmpd_coord_routed_total", "Requests admitted and routed to a shard.", metrics.Value(s.Routed)),
		metrics.Counter("gpucmpd_coord_shed_total", "Requests refused with 503: coordinator overloaded.", metrics.Value(s.Shed)),
		metrics.Counter("gpucmpd_coord_quota_denied_total", "Requests refused with 429 by tenant quota.", metrics.Value(s.QuotaDenied)),
		metrics.Counter("gpucmpd_coord_failovers_total", "Attempts moved to the next shard after a shard failure.", metrics.Value(s.Failovers)),
		metrics.Counter("gpucmpd_coord_hedges_total", "Hedge attempts fired against slow shards.", metrics.Value(s.Hedges)),
		metrics.Counter("gpucmpd_coord_hedge_wins_total", "Hedge attempts whose response won the race.", metrics.Value(s.HedgeWins)),
		metrics.Counter("gpucmpd_coord_dedup_joined_total", "Requests served by an identical in-flight proxy call.", metrics.Value(s.DedupJoined)),
		metrics.Counter("gpucmpd_coord_no_shard_total", "Requests that found an empty ring.", metrics.Value(s.NoShard)),
		metrics.Gauge("gpucmpd_coord_ring_members", "Workers currently on the routing ring.", metrics.Value(s.RingMembers)),
		metrics.Counter("gpucmpd_coord_shard_requests_total", "Attempts sent per shard.",
			metrics.Rows(s.Shards, "shard", func(sh ShardSnapshot) (string, uint64) { return sh.Shard, sh.Requests })...),
		metrics.Counter("gpucmpd_coord_shard_errors_total", "Failed attempts per shard.",
			metrics.Rows(s.Shards, "shard", func(sh ShardSnapshot) (string, uint64) { return sh.Shard, sh.Errors })...),
		metrics.Counter("gpucmpd_coord_shard_hedges_total", "Hedge attempts per shard.",
			metrics.Rows(s.Shards, "shard", func(sh ShardSnapshot) (string, uint64) { return sh.Shard, sh.Hedges })...),
		metrics.Gauge("gpucmpd_coord_shard_in_ring", "Shard ring membership (1 = routing to it).",
			metrics.Rows(s.Shards, "shard", func(sh ShardSnapshot) (string, int) {
				if sh.InRing {
					return sh.Shard, 1
				}
				return sh.Shard, 0
			})...),
		metrics.Gauge("gpucmpd_coord_breaker_state", "Per-shard breaker state (0=closed, 1=half-open, 2=open).",
			metrics.Rows(s.Shards, "shard", func(sh ShardSnapshot) (string, int) { return sh.Shard, breakerGauge(sh.Breaker) })...),
		metrics.Histograms("gpucmpd_coord_queue_depth", "In-flight proxied requests observed at admission.", metrics.Hist(&s.depth)),
		metrics.Counter("gpucmpd_coord_quota_allowed_total", "Requests admitted by the tenant quota.",
			metrics.Rows(s.Quotas, "tenant", func(q sched.TenantQuotaSnapshot) (string, uint64) { return q.Tenant, q.Allowed })...).OmitEmpty(),
		metrics.Counter("gpucmpd_coord_quota_denied_tenant_total", "Requests rejected by the tenant quota.",
			metrics.Rows(s.Quotas, "tenant", func(q sched.TenantQuotaSnapshot) (string, uint64) { return q.Tenant, q.Denied })...).OmitEmpty(),
	})
}
