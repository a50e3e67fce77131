package cluster

import (
	"errors"
	"slices"
	"sync"
	"time"

	"gpucmp/internal/clock"
)

// A shard's breaker opens after breakerThreshold consecutive failed
// attempts (the worker was down, unreachable, or answered a failover
// status) and refuses the shard for breakerCoolDown before letting one
// probe through.
const (
	breakerThreshold = 5
	breakerCoolDown  = 30 * time.Second
)

// errBreakerOpen is the errors.Is sentinel for an attempt skipped because
// its shard's breaker is open.
var errBreakerOpen = errors.New("cluster: circuit breaker open")

// breakerState is a circuit breaker's position. Its value is the
// gpucmpd_coord_breaker_state gauge.
type breakerState int

const (
	// breakerClosed: the shard is healthy; attempts flow normally.
	breakerClosed breakerState = iota
	// breakerHalfOpen: the cool-down elapsed; one probe attempt is in
	// flight to decide between closing and re-opening.
	breakerHalfOpen
	// breakerOpen: the shard failed repeatedly; attempts skip it until
	// the cool-down elapses.
	breakerOpen
)

var breakerStates = [...]string{"closed", "half-open", "open"}

// String names the state for /healthz and /metrics?format=json.
func (s breakerState) String() string { return breakerStates[s] }

// breakerGauge encodes a state name from a snapshot for /metrics: 0
// closed, 1 half-open, 2 open.
func breakerGauge(state string) int { return slices.Index(breakerStates[:], state) }

// breaker is one shard's circuit breaker: closed → (threshold consecutive
// failures) → open → (cool-down) → half-open → one probe decides.
type breaker struct {
	threshold int
	coolDown  time.Duration
	clock     clock.Clock

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
	trips    uint64    // times the breaker opened
}

// newBreaker builds a closed breaker that opens after threshold
// consecutive failures and times its cool-down on clk.
func newBreaker(threshold int, coolDown time.Duration, clk clock.Clock) *breaker {
	return &breaker{threshold: threshold, coolDown: coolDown, clock: clk}
}

// Allow reports whether an attempt may proceed now. When it returns false,
// the duration is how long until the next half-open probe.
func (b *breaker) Allow() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if wait := b.coolDown - b.clock.Now().Sub(b.openedAt); wait > 0 {
			return false, wait
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, 0
	default: // breakerHalfOpen
		if b.probing {
			return false, b.coolDown
		}
		b.probing = true
		return true, 0
	}
}

// Success records an answered attempt: it closes a half-open breaker and
// resets the failure streak.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// Failure records a failed attempt and reports whether this call tripped
// the breaker open.
func (b *breaker) Failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: straight back to open for another cool-down.
		b.open()
		return true
	case breakerOpen:
		return false
	default:
		b.fails++
		if b.fails >= b.threshold {
			b.open()
			return true
		}
		return false
	}
}

// open moves the breaker to open now. b.mu must be held.
func (b *breaker) open() {
	b.state = breakerOpen
	b.openedAt = b.clock.Now()
	b.probing = false
	b.trips++
}

// State returns the breaker's current position.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// breakerSnapshot is one breaker's state for /healthz. Device holds the
// shard's URL; the key is the one the coordinator's /healthz has always
// sent.
type breakerSnapshot struct {
	Device           string  `json:"device"`
	State            string  `json:"state"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	Trips            uint64  `json:"trips"`
	RetryAfterSec    float64 `json:"retry_after_seconds,omitempty"`
}

// Snapshot reports the breaker's state, labelled with the shard's name.
func (b *breaker) Snapshot(name string) breakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := breakerSnapshot{
		Device:           name,
		State:            b.state.String(),
		ConsecutiveFails: b.fails,
		Trips:            b.trips,
	}
	if b.state == breakerOpen {
		if wait := b.coolDown - b.clock.Now().Sub(b.openedAt); wait > 0 {
			s.RetryAfterSec = wait.Seconds()
		}
	}
	return s
}
