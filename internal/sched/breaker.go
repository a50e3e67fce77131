package sched

import (
	"sync"
	"time"

	"gpucmp/internal/clock"
)

// BreakerConfig configures the per-device circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive Transient/Watchdog
	// failures open a device's breaker (<= 0 selects the default of 5).
	FailureThreshold int
	// CoolDown is how long an open breaker rejects jobs before letting
	// one probe through half-open (default 30s).
	CoolDown time.Duration
	// Disabled turns the breakers off entirely.
	Disabled bool
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.CoolDown <= 0 {
		c.CoolDown = 30 * time.Second
	}
	return c
}

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: the device is healthy; jobs flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the device failed repeatedly; jobs are rejected until
	// the cool-down elapses.
	BreakerOpen
	// BreakerHalfOpen: the cool-down elapsed; one probe job is in flight
	// to decide between closing and re-opening.
	BreakerHalfOpen
)

// BreakerGauge encodes a BreakerSnapshot state for /metrics: 0 closed,
// 1 half-open, 2 open.
func BreakerGauge(state string) int { return breakerGauges[state] }

var breakerGauges = map[string]int{BreakerHalfOpen.String(): 1, BreakerOpen.String(): 2}

// String names the state for /healthz and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is one circuit breaker: closed → (threshold consecutive
// failures) → open → (cool-down) → half-open → one probe decides. The
// scheduler runs one per device; internal/cluster runs one per shard with
// the same contract and the same error taxonomy. The zero value is not
// usable; construct with NewBreaker.
type Breaker struct {
	cfg   BreakerConfig
	clock clock.Clock

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive breaker-relevant failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	trips    uint64    // times the breaker opened
}

// NewBreaker builds a circuit breaker with the given config (zero fields
// take the scheduler defaults), timing its cool-down on clk.
func NewBreaker(cfg BreakerConfig, clk clock.Clock) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), clock: clk}
}

// Allow reports whether a request may proceed now. When it returns false,
// the duration is how long until the next half-open probe.
func (b *Breaker) Allow() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if wait := b.cfg.CoolDown - b.clock.Now().Sub(b.openedAt); wait > 0 {
			return false, wait
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, 0
	default: // BreakerHalfOpen
		if b.probing {
			return false, b.cfg.CoolDown
		}
		b.probing = true
		return true, 0
	}
}

// Success records a completed request: it closes a half-open breaker and
// resets the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
}

// Failure records a Transient/Watchdog failure and reports whether this
// call tripped the breaker open.
func (b *Breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		// The probe failed: straight back to open for another cool-down.
		b.state = BreakerOpen
		b.openedAt = b.clock.Now()
		b.probing = false
		b.trips++
		return true
	case BreakerOpen:
		return false
	default:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.state = BreakerOpen
			b.openedAt = b.clock.Now()
			b.trips++
			return true
		}
		return false
	}
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerSnapshot is one breaker's state for /healthz.
type BreakerSnapshot struct {
	Device           string  `json:"device"`
	State            string  `json:"state"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	Trips            uint64  `json:"trips"`
	RetryAfterSec    float64 `json:"retry_after_seconds,omitempty"`
}

// Snapshot reports the breaker's state for health/metrics endpoints,
// labelled with the given name.
func (b *Breaker) Snapshot(name string) BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BreakerSnapshot{
		Device:           name,
		State:            b.state.String(),
		ConsecutiveFails: b.fails,
		Trips:            b.trips,
	}
	if b.state == BreakerOpen {
		if wait := b.cfg.CoolDown - b.clock.Now().Sub(b.openedAt); wait > 0 {
			s.RetryAfterSec = wait.Seconds()
		}
	}
	return s
}

// breakerFor returns (creating if needed) the breaker for a device, or nil
// when breakers are disabled.
func (s *Scheduler) breakerFor(device string) *Breaker {
	if s.opts.Breaker.Disabled {
		return nil
	}
	return s.breakers.Get(device)
}

// Breakers snapshots every device breaker, sorted by device name, for
// /healthz.
func (s *Scheduler) Breakers() []BreakerSnapshot {
	out := []BreakerSnapshot{}
	s.breakers.Each(func(device string, b *Breaker) { out = append(out, b.Snapshot(device)) })
	return out
}
