package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/bench"
	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
)

// scaleJob is fastJob at a chosen scale, so tests can mint distinct keys.
func scaleJob(scale int) Job {
	j := fastJob()
	j.Config.Scale = scale
	return j
}

func TestRetryTransientEventuallySucceeds(t *testing.T) {
	inj := fault.New(1, fault.Schedule{TransientRate: 1.0, MaxPerKey: 2})
	s := New(Options{Workers: 1, Injector: inj})
	defer s.Close()

	res, err := s.Run(context.Background(), fastJob())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res == nil || res.Err != nil {
		t.Fatalf("result = %+v, want a clean success after retries", res)
	}
	snap := s.Metrics().Snapshot()
	if snap.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (MaxPerKey faults then success)", snap.Retries)
	}
	// The faulty run's result must be bit-identical to a fault-free run.
	clean := New(Options{Workers: 1})
	defer clean.Close()
	want, err := clean.Run(context.Background(), fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if resultChecksum(res) != resultChecksum(want) {
		t.Error("post-retry result differs from the fault-free result")
	}
}

func TestRetryExhaustionBecomesPermanent(t *testing.T) {
	inj := fault.New(1, fault.Schedule{TransientRate: 1.0})
	s := New(Options{Workers: 1, MaxAttempts: 4, Injector: inj, Breaker: BreakerConfig{Disabled: true}})
	defer s.Close()

	_, err := s.Run(context.Background(), fastJob())
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent after exhausting retries", err)
	}
	if !errors.Is(err, fault.ErrTransientLaunch) {
		t.Errorf("err = %v, want the transient cause to stay in the chain", err)
	}
	if errors.Is(err, ErrTransient) {
		t.Error("an exhausted job must not classify as Transient")
	}
	if snap := s.Metrics().Snapshot(); snap.Retries != 3 {
		t.Errorf("Retries = %d, want 3", snap.Retries)
	}
	if n := inj.Total(); n != 4 {
		t.Errorf("%d attempts launched, want 4", n)
	}
}

func TestOutOfResourcesIsPermanentAndNotRetried(t *testing.T) {
	inj := fault.New(1, fault.Schedule{OORRate: 1.0})
	s := New(Options{Workers: 1, Injector: inj})
	defer s.Close()

	_, err := s.Run(context.Background(), fastJob())
	if !errors.Is(err, ErrPermanent) || !errors.Is(err, fault.ErrOutOfResources) {
		t.Fatalf("err = %v, want Permanent wrapping fault.ErrOutOfResources", err)
	}
	if snap := s.Metrics().Snapshot(); snap.Retries != 0 {
		t.Errorf("Retries = %d, want 0 for a permanent failure", snap.Retries)
	}
	if s.CacheLen() != 0 {
		t.Error("failed executions must not be cached")
	}
}

// TestInjectedHangIsReclaimedByWatchdog: an attempt that hangs until it
// is cancelled comes back, typed Watchdog, once the clock passes
// JobTimeout.
func TestInjectedHangIsReclaimedByWatchdog(t *testing.T) {
	inj := fault.New(1, fault.Schedule{HangRate: 1.0})
	clk := clock.NewFake(time.Now())
	s := New(Options{Workers: 1, JobTimeout: 20 * time.Millisecond, Injector: inj, clock: clk})
	defer s.Close()

	err := runPastTimeout(t, s, clk, 1)
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("err = %v, want ErrWatchdog", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	snap := s.Metrics().Snapshot()
	if snap.Timeouts != 1 || snap.WatchdogReclaims != 1 {
		t.Errorf("timeouts/reclaims = %d/%d, want 1/1", snap.Timeouts, snap.WatchdogReclaims)
	}
	if s.CacheLen() != 0 {
		t.Error("watchdog-killed jobs must not be cached")
	}
}

func TestBreakerOpensAfterThresholdAndRecovers(t *testing.T) {
	inj := fault.New(1, fault.Schedule{TransientRate: 1.0, MaxPerKey: 1})
	clk := clock.NewFake(time.Now())
	s := New(Options{
		Workers:     1,
		MaxAttempts: 1, // no retry: each job fails once
		Breaker:     BreakerConfig{FailureThreshold: 2, CoolDown: time.Hour},
		Injector:    inj,
		clock:       clk,
	})
	defer s.Close()
	ctx := context.Background()
	dev := fastJob().Device

	// Two distinct jobs fail once each (MaxPerKey=1, no retry budget):
	// the second failure trips the breaker.
	for i := 0; i < 2; i++ {
		if _, err := s.Run(ctx, scaleJob(16+i)); !errors.Is(err, ErrPermanent) {
			t.Fatalf("job %d: err = %v, want Permanent (attempts exhausted)", i, err)
		}
	}
	if st := breakerState(s, dev); st != BreakerOpen.String() {
		t.Fatalf("breaker state = %v, want open after %d failures", st, 2)
	}

	// While open, jobs are denied without running.
	_, err := s.Run(ctx, scaleJob(32))
	var boe *BreakerOpenError
	if !errors.As(err, &boe) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want BreakerOpenError", err)
	}
	if boe.Device != dev || boe.RetryAfter <= 0 {
		t.Errorf("BreakerOpenError = %+v, want device %s and positive RetryAfter", boe, dev)
	}
	if errors.Is(err, ErrTransient) == false {
		t.Error("breaker denial should classify as Transient (the device may recover)")
	}

	snaps := s.Breakers()
	if len(snaps) != 1 || snaps[0].Device != dev || snaps[0].State != "open" || snaps[0].Trips != 1 {
		t.Fatalf("Breakers() = %+v, want one open breaker for %s", snaps, dev)
	}
	if snaps[0].RetryAfterSec <= 0 {
		t.Error("open breaker snapshot must report remaining cool-down")
	}
	for state, want := range map[string]int{"closed": 0, "half-open": 1, "open": 2} {
		if got := BreakerGauge(state); got != want {
			t.Errorf("BreakerGauge(%q) = %d, want %d", state, got, want)
		}
	}

	// After the cool-down the breaker half-opens; the probe (fault budget
	// for its key is fresh but MaxPerKey=1 consumes the first attempt...
	// use a key that already spent its fault) succeeds and closes it.
	clk.Advance(2 * time.Hour)
	if _, err := s.Run(ctx, scaleJob(16)); err != nil { // key 16 already spent its injected fault
		t.Fatalf("half-open probe: %v", err)
	}
	if st := breakerState(s, dev); st != BreakerClosed.String() {
		t.Fatalf("breaker state = %v, want closed after successful probe", st)
	}
	snap := s.Metrics().Snapshot()
	if snap.BreakerTrips != 1 || snap.BreakerDenials != 1 {
		t.Errorf("trips/denials = %d/%d, want 1/1", snap.BreakerTrips, snap.BreakerDenials)
	}
}

// breakerState reads one device's breaker state from Breakers: "closed"
// when the device has no breaker.
func breakerState(s *Scheduler, device string) string {
	for _, b := range s.Breakers() {
		if b.Device == device {
			return b.State
		}
	}
	return BreakerClosed.String()
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	clk := clock.NewFake(time.Now())
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, CoolDown: time.Minute}, clk)

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
	if b.state != BreakerOpen {
		t.Fatalf("state = %v, want open after failed probe", b.state)
	}
	clk.Advance(2 * time.Minute)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker must half-open again")
	}
	b.Success()
	if b.state != BreakerClosed || b.fails != 0 {
		t.Fatalf("state/fails = %v/%d, want closed/0 after successful probe", b.state, b.fails)
	}
}

func TestCorruptedCacheEntryDetectedAndReexecuted(t *testing.T) {
	inj := fault.New(1, fault.Schedule{CorruptRate: 1.0})
	s := New(Options{Workers: 1, Injector: inj})
	defer s.Close()
	ctx := context.Background()

	r1, o1, err := s.Do(ctx, fastJob())
	if err != nil || o1 != Miss {
		t.Fatalf("first Do = %v outcome %v, want clean miss", err, o1)
	}
	// The stored entry's checksum was flipped: the next read must detect
	// the corruption, evict, and re-execute rather than serve it.
	r2, o2, err := s.Do(ctx, fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if o2 != Miss {
		t.Fatalf("second Do outcome = %v, want miss (corrupted entry evicted)", o2)
	}
	if resultChecksum(r1) != resultChecksum(r2) {
		t.Error("re-executed result must be bit-identical")
	}
	snap := s.Metrics().Snapshot()
	if snap.CacheCorruptions != 1 || snap.JobsRun != 2 {
		t.Errorf("corruptions/jobs = %d/%d, want 1/2", snap.CacheCorruptions, snap.JobsRun)
	}
}

func TestClassOfTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{context.DeadlineExceeded, Watchdog},
		{fault.ErrTransientLaunch, Transient},
		{fault.ErrOutOfResources, Permanent},
		{errors.New("mystery"), Permanent},
		{wrapClass(Transient, errors.New("x")), Transient},
		{&BreakerOpenError{Device: "d"}, Transient},
	}
	for i, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("case %d: ClassOf(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
	// Class sentinels are mutually exclusive.
	err := wrapClass(Watchdog, errors.New("killed"))
	if !errors.Is(err, ErrWatchdog) || errors.Is(err, ErrTransient) || errors.Is(err, ErrPermanent) {
		t.Error("classified error must match exactly its own sentinel")
	}
}

// TestLRUSingleflightUnderConcurrentEviction hammers a 2-entry cache from
// many goroutines over 6 distinct keys: constant eviction races against
// singleflight and cache fills. Correctness (every caller gets the right
// result) is asserted per call; -race checks the locking.
func TestLRUSingleflightUnderConcurrentEviction(t *testing.T) {
	s := New(Options{Workers: 4, CacheSize: 2})
	defer s.Close()
	ctx := context.Background()

	want := map[int]uint64{}
	for i := 0; i < 6; i++ {
		res, err := s.Run(ctx, scaleJob(16+i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultChecksum(res)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % 6
				res, err := s.Run(ctx, scaleJob(16+k))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if resultChecksum(res) != want[k] {
					t.Errorf("goroutine %d: key %d served a wrong result", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.CacheLen() > 2 {
		t.Errorf("CacheLen = %d, want <= 2", s.CacheLen())
	}
}

// TestPanicClassifiesPermanent checks the panic-isolation path end to end:
// a panicking job body becomes a typed Permanent error and the pool keeps
// serving.
func TestPanicClassifiesPermanent(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	_, err := safely(s.metrics, "boom", func() (*bench.Result, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("safely: err = %v, want panic message", err)
	}
	if ClassOf(err) != Permanent {
		t.Errorf("ClassOf(panic error) = %v, want Permanent", ClassOf(err))
	}
	if snap := s.Metrics().Snapshot(); snap.Panics != 1 {
		t.Errorf("Panics = %d, want 1", snap.Panics)
	}
	// The pool survives and still runs jobs.
	if _, err := s.Run(context.Background(), fastJob()); err != nil {
		t.Fatalf("pool did not survive the panic: %v", err)
	}
}
