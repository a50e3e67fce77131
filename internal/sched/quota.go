package sched

import (
	"sort"
	"sync"
	"time"

	"gpucmp/internal/clock"
)

// QuotaConfig is the per-tenant token-bucket policy for untrusted
// submissions. Every tenant gets its own bucket holding up to Burst
// tokens, refilled at Rate tokens per second; one accepted submission
// spends one token. The zero value disables quotas (every request is
// allowed).
type QuotaConfig struct {
	Rate  float64 // tokens per second per tenant (0 = unlimited)
	Burst float64 // bucket capacity (defaults to max(Rate, 1))
}

// maxTenants caps the bucket map so an attacker minting tenant names
// cannot grow it without bound. When full, the bucket with the most
// remaining tokens — the least-throttled tenant — is evicted, so a
// throttled tenant cannot launder its own bucket away by flooding fresh
// names.
const maxTenants = 1024

func (c QuotaConfig) withDefaults() QuotaConfig {
	if c.Burst <= 0 {
		c.Burst = c.Rate
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

// Enabled reports whether this config throttles at all.
func (c QuotaConfig) Enabled() bool { return c.Rate > 0 }

type quotaBucket struct {
	tokens  float64
	last    time.Time
	allowed uint64
	denied  uint64
}

// TenantQuotas applies a QuotaConfig across tenants. Safe for concurrent
// use.
type TenantQuotas struct {
	cfg   QuotaConfig
	clock clock.Clock

	mu      sync.Mutex
	buckets map[string]*quotaBucket
}

// NewTenantQuotas builds a quota table that refills on clk. A zero config
// yields a table that always allows.
func NewTenantQuotas(cfg QuotaConfig, clk clock.Clock) *TenantQuotas {
	return &TenantQuotas{
		cfg:     cfg.withDefaults(),
		clock:   clk,
		buckets: make(map[string]*quotaBucket),
	}
}

// Allow spends one token from the tenant's bucket. When the bucket is
// empty it returns false and how long the tenant must wait for the next
// token (the Retry-After the server sends with its 429).
func (q *TenantQuotas) Allow(tenant string) (bool, time.Duration) {
	if !q.cfg.Enabled() {
		return true, 0
	}
	now := q.clock.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[tenant]
	if b == nil {
		b = &quotaBucket{tokens: q.cfg.Burst, last: now}
		if len(q.buckets) >= maxTenants {
			q.evictFullestLocked()
		}
		q.buckets[tenant] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * q.cfg.Rate
		if b.tokens > q.cfg.Burst {
			b.tokens = q.cfg.Burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		b.allowed++
		return true, 0
	}
	b.denied++
	wait := time.Duration((1 - b.tokens) / q.cfg.Rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second // floor so Retry-After never rounds to 0
	}
	return false, wait
}

// evictFullestLocked drops the bucket with the most remaining tokens.
func (q *TenantQuotas) evictFullestLocked() {
	var victim string
	best := -1.0
	for name, b := range q.buckets {
		if b.tokens > best {
			best = b.tokens
			victim = name
		}
	}
	delete(q.buckets, victim)
}

// TenantQuotaSnapshot is one tenant's accounting for /metrics.
type TenantQuotaSnapshot struct {
	Tenant  string  `json:"tenant"`
	Allowed uint64  `json:"allowed"`
	Denied  uint64  `json:"denied"`
	Tokens  float64 `json:"tokens"` // remaining, at snapshot time
}

// Snapshot returns per-tenant quota accounting sorted by tenant name.
func (q *TenantQuotas) Snapshot() []TenantQuotaSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]TenantQuotaSnapshot, 0, len(q.buckets))
	for name, b := range q.buckets {
		out = append(out, TenantQuotaSnapshot{
			Tenant: name, Allowed: b.allowed, Denied: b.denied, Tokens: b.tokens,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
