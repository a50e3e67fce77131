package cluster

import (
	"testing"
	"time"

	"gpucmp/internal/clock"
)

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := clock.NewFake(time.Now())
	b := newBreaker(1, time.Minute, clk)

	if ok, _ := b.Allow(); !ok {
		t.Fatal("closed breaker must allow")
	}
	if !b.Failure() {
		t.Fatal("threshold-1 breaker must trip on first failure")
	}
	if ok, wait := b.Allow(); ok || wait <= 0 {
		t.Fatal("open breaker must deny with a positive wait")
	}
	clk.Advance(2 * time.Minute)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker must half-open after cool-down")
	}
	// Only one probe at a time.
	if ok, _ := b.Allow(); ok {
		t.Fatal("half-open breaker must admit a single probe")
	}
	if !b.Failure() {
		t.Fatal("failed probe must re-open the breaker")
	}
	if b.state != breakerOpen {
		t.Fatalf("state = %v, want open after failed probe", b.state)
	}
	clk.Advance(2 * time.Minute)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker must half-open again")
	}
	b.Success()
	if b.state != breakerClosed || b.fails != 0 {
		t.Fatalf("state/fails = %v/%d, want closed/0 after successful probe", b.state, b.fails)
	}
	for state, want := range map[string]int{"closed": 0, "half-open": 1, "open": 2} {
		if got := breakerGauge(state); got != want {
			t.Errorf("breakerGauge(%q) = %d, want %d", state, got, want)
		}
	}
}
