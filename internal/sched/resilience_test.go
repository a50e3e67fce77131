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
	s := New(Options{Workers: 1, MaxAttempts: 4, Injector: inj})
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

// TestDeviceFailuresDenyNoOtherJob: failures of other jobs on a device
// say nothing about the next job there. Five distinct jobs on one device
// fail once each; the first of them, run again with its fault spent,
// returns its result.
func TestDeviceFailuresDenyNoOtherJob(t *testing.T) {
	inj := fault.New(1, fault.Schedule{TransientRate: 1.0, MaxPerKey: 1})
	s := New(Options{Workers: 1, MaxAttempts: 1, Injector: inj})
	defer s.Close()
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		_, err := s.Run(ctx, scaleJob(16+i))
		if !errors.Is(err, ErrPermanent) || !errors.Is(err, fault.ErrTransientLaunch) {
			t.Fatalf("job %d: err = %v, want Permanent wrapping its injected fault", i, err)
		}
	}
	res, err := s.Run(ctx, scaleJob(16))
	if err != nil {
		t.Fatalf("rerun of a job whose fault is spent: %v", err)
	}
	if res == nil || res.Err != nil {
		t.Fatalf("result = %+v, want a clean success", res)
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
