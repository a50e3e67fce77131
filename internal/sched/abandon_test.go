package sched

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
)

// awaitWorker runs a no-op task, under a fresh key, on a one-worker
// scheduler. It completes only once the worker has finished everything
// submitted before it, so a test waits on the worker, not on the clock.
func awaitWorker(t *testing.T, s *Scheduler, key string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.DoTask(context.Background(), "test", "await-worker", key,
			func(context.Context) (any, error) { return true, nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("task behind the worker's backlog: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never came free")
	}
}

// TestAbandonedJobReclaimsWorker: when every waiter's context is
// cancelled mid-execution, the scheduler must (a) return the context
// error promptly, (b) cancel the in-flight execution so the worker is
// reclaimed instead of riding out the stall, and (c) count the
// abandonment without tripping the breaker.
func TestAbandonedJobReclaimsWorker(t *testing.T) {
	// Every launch stalls 10s on a clock that never moves: only
	// abandonment cancellation can bring the worker back.
	inj := fault.New(1, fault.Schedule{SlowRate: 1.0, SlowDelay: 10 * time.Second})
	clk := clock.NewFake(time.Now())
	s := New(Options{Workers: 1, Injector: inj, clock: clk})
	defer s.Close()

	job := Job{Benchmark: "Reduce", Device: "GeForce GTX480", Toolchain: "opencl"}
	job.Config.Scale = 64

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ctx, job)
		errCh <- err
	}()
	clk.WaitArmed(1) // the job is in its injected stall
	cancel()

	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned Do returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return after all waiters left")
	}

	// The execution itself is cancelled asynchronously; the worker comes
	// back without the stall ever ending.
	awaitWorker(t, s, "after-abandon")
	snap := s.Metrics().Snapshot()
	if snap.Abandons != 1 || snap.WatchdogReclaims != 1 || snap.WatchdogLeaks != 0 {
		t.Fatalf("abandons/reclaims/leaks = %d/%d/%d, want 1/1/0",
			snap.Abandons, snap.WatchdogReclaims, snap.WatchdogLeaks)
	}

	// Abandonment says nothing about device health: the breaker must not
	// have accumulated failures.
	for _, b := range s.Breakers() {
		if b.State != "closed" || b.ConsecutiveFails != 0 {
			t.Errorf("breaker %s = %s with %d consecutive fails after abandonment, want closed/0",
				b.Device, b.State, b.ConsecutiveFails)
		}
	}
}

// TestAbandonBeforeExecutionFastDrops: a job whose every waiter leaves
// while it is still queued must be dropped by the worker without
// executing (no stall, no breaker effect).
func TestAbandonBeforeExecutionFastDrops(t *testing.T) {
	inj := fault.New(1, fault.Schedule{SlowRate: 1.0, SlowDelay: 10 * time.Second})
	clk := clock.NewFake(time.Now())
	s := New(Options{Workers: 1, Injector: inj, clock: clk})
	defer s.Close()

	// Occupy the only worker with a launch stalled on the frozen clock.
	blocker := Job{Benchmark: "Scan", Device: "GeForce GTX480", Toolchain: "opencl"}
	blocker.Config.Scale = 64
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	go s.Do(bctx, blocker) //nolint:errcheck // released via abandonment
	clk.WaitArmed(1)

	// Queue a second job whose only waiter has already gone: Do enqueues
	// it and abandons it at once.
	queued := Job{Benchmark: "Sobel", Device: "GeForce GTX480", Toolchain: "opencl"}
	queued.Config.Scale = 64
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.Do(ctx, queued); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued abandoned Do returned %v, want context.Canceled", err)
	}

	bcancel()
	awaitWorker(t, s, "after-queue")
	if snap := s.Metrics().Snapshot(); snap.Abandons != 2 || snap.JobsRun != 1 {
		t.Errorf("abandons/jobs run = %d/%d, want 2/1 (the blocker ran, the queued job did not)", snap.Abandons, snap.JobsRun)
	}
	if n := inj.Total(); n != 1 {
		t.Errorf("%d launches reached the injector, want only the blocker's", n)
	}
}

// TestAbandonDuringBackoffFreesWorker: a job whose every waiter leaves
// while it waits out a retry backoff gives its worker back at once, on a
// clock that never moves, and never makes its second attempt.
func TestAbandonDuringBackoffFreesWorker(t *testing.T) {
	// An hour-long backoff: a worker that sat it out would never return.
	inj := fault.New(1, fault.Schedule{TransientRate: 1.0})
	clk := clock.NewFake(time.Now())
	s := New(Options{Workers: 1, Injector: inj, clock: clk,
		Retry: RetryPolicy{BaseDelay: time.Hour, MaxDelay: time.Hour}})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ctx, fastJob())
		errCh <- err
	}()
	clk.WaitArmed(1) // the first attempt failed; its retry backoff is armed
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do returned %v, want context.Canceled", err)
	}

	awaitWorker(t, s, "after-backoff")
	if snap := s.Metrics().Snapshot(); snap.Retries != 1 || snap.Abandons != 1 {
		t.Errorf("retries/abandons = %d/%d, want 1/1", snap.Retries, snap.Abandons)
	}
	if n := inj.Total(); n != 1 {
		t.Errorf("%d attempts launched, want 1: the abandoned job made its second attempt", n)
	}
}

// TestAbandonedResultNotCached: a fresh waiter arriving after an
// abandonment must trigger a fresh execution, not observe a cached
// abandoned error.
func TestAbandonedResultNotCached(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	job := Job{Benchmark: "Reduce", Device: "GeForce GTX480", Toolchain: "opencl"}
	job.Config.Scale = 64

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the wait abandons immediately
	if _, _, err := s.Do(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do with dead context = %v, want context.Canceled", err)
	}

	res, _, err := s.Do(context.Background(), job)
	if err != nil {
		t.Fatalf("fresh Do after abandonment failed: %v", err)
	}
	if res == nil {
		t.Fatal("fresh Do returned nil result")
	}
}
