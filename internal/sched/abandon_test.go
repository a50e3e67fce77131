package sched

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
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

// taskKind is one way work reaches the worker pool: a /run job through Do
// or a tenant function through DoTask. The abandonment tests run over both.
type taskKind struct {
	name string
	// reclaims is how many watchdog reclaims an abandoned execution
	// counts: a job attempt runs under the watchdog, a tenant function
	// returns by itself once its context is cancelled.
	reclaims uint64
	// stalled returns a one-worker scheduler on a frozen clock, a submit
	// whose n-th work (n < 3) stalls 10s on that clock unless its call is
	// abandoned, and a count of the executions that began.
	stalled func() (s *Scheduler, clk *clock.Fake, submit func(ctx context.Context, n int) error, started func() int)
	// quick submits work that finishes at once and returns its value.
	quick func(ctx context.Context, s *Scheduler) (any, error)
}

var taskKinds = []taskKind{
	{
		name:     "Do job",
		reclaims: 1,
		stalled: func() (*Scheduler, *clock.Fake, func(context.Context, int) error, func() int) {
			inj := fault.New(1, fault.Schedule{SlowRate: 1.0, SlowDelay: 10 * time.Second})
			clk := clock.NewFake(time.Now())
			s := New(Options{Workers: 1, Injector: inj, Clock: clk})
			submit := func(ctx context.Context, n int) error {
				job := Job{Benchmark: []string{"Reduce", "Scan", "Sobel"}[n], Device: "GeForce GTX480", Toolchain: "opencl"}
				job.Config.Scale = 64
				_, _, err := s.Do(ctx, job)
				return err
			}
			return s, clk, submit, func() int { return int(inj.Total()) }
		},
		quick: func(ctx context.Context, s *Scheduler) (any, error) {
			job := Job{Benchmark: "Reduce", Device: "GeForce GTX480", Toolchain: "opencl"}
			job.Config.Scale = 64
			e, _, err := s.Do(ctx, job)
			if e == nil {
				return nil, err
			}
			return e, err
		},
	},
	{
		name: "DoTask fn",
		stalled: func() (*Scheduler, *clock.Fake, func(context.Context, int) error, func() int) {
			clk := clock.NewFake(time.Now())
			s := New(Options{Workers: 1, Clock: clk})
			var started atomic.Int64
			submit := func(ctx context.Context, n int) error {
				_, _, err := s.DoTask(ctx, "test", "stall", strconv.Itoa(n), func(ctx context.Context) (any, error) {
					started.Add(1)
					stalled := make(chan struct{})
					timer := clk.AfterFunc(10*time.Second, func() { close(stalled) })
					defer timer.Stop()
					select {
					case <-stalled:
						return true, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				})
				return err
			}
			return s, clk, submit, func() int { return int(started.Load()) }
		},
		quick: func(ctx context.Context, s *Scheduler) (any, error) {
			v, _, err := s.DoTask(ctx, "test", "quick", "k", func(context.Context) (any, error) { return "done", nil })
			return v, err
		},
	},
}

// TestAbandonedJobReclaimsWorker: when every waiter's context is
// cancelled mid-execution, the scheduler must (a) return the context
// error promptly, (b) cancel the in-flight execution so the worker is
// reclaimed instead of riding out the stall, and (c) count the
// abandonment.
func TestAbandonedJobReclaimsWorker(t *testing.T) {
	for _, kind := range taskKinds {
		t.Run(kind.name, func(t *testing.T) {
			// The work stalls 10s on a clock that never moves: only
			// abandonment cancellation can bring the worker back.
			s, clk, submit, started := kind.stalled()
			defer s.Close()

			ctx, cancel := context.WithCancel(context.Background())
			errCh := make(chan error, 1)
			go func() { errCh <- submit(ctx, 0) }()
			clk.WaitArmed(1) // the work is in its stall
			cancel()

			select {
			case err := <-errCh:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("abandoned submission returned %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the submission did not return after all waiters left")
			}

			// The execution itself is cancelled asynchronously; the worker
			// comes back without the stall ever ending.
			awaitWorker(t, s, "after-abandon")
			snap := s.Metrics().Snapshot()
			if snap.Abandons != 1 || snap.WatchdogReclaims != kind.reclaims {
				t.Fatalf("abandons/reclaims = %d/%d, want 1/%d",
					snap.Abandons, snap.WatchdogReclaims, kind.reclaims)
			}
			// The abandoned work is never tried again.
			if n := started(); n != 1 {
				t.Errorf("%d executions began, want 1", n)
			}
		})
	}
}

// TestAbandonBeforeExecutionFastDrops: work whose every waiter leaves
// while it is still queued must be dropped by the worker without
// executing (no stall).
func TestAbandonBeforeExecutionFastDrops(t *testing.T) {
	for _, kind := range taskKinds {
		t.Run(kind.name, func(t *testing.T) {
			s, clk, submit, started := kind.stalled()
			defer s.Close()

			// Occupy the only worker with work stalled on the frozen clock.
			bctx, bcancel := context.WithCancel(context.Background())
			defer bcancel()
			go submit(bctx, 1) //nolint:errcheck // released via abandonment
			clk.WaitArmed(1)

			// Queue a second submission whose only waiter has already
			// gone: it is enqueued and abandoned at once.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := submit(ctx, 2); !errors.Is(err, context.Canceled) {
				t.Fatalf("queued abandoned submission returned %v, want context.Canceled", err)
			}

			bcancel()
			awaitWorker(t, s, "after-queue")
			if snap := s.Metrics().Snapshot(); snap.Abandons != 2 {
				t.Errorf("abandons = %d, want 2 (the blocker and the queued work)", snap.Abandons)
			}
			if n := started(); n != 1 {
				t.Errorf("%d executions began, want only the blocker's", n)
			}
			if snap := s.Metrics().Snapshot(); snap.JobsRun+snap.TasksRun != 2 {
				t.Errorf("jobs+tasks run = %d+%d, want 2 (the blocker and awaitWorker's task ran, the queued work did not)",
					snap.JobsRun, snap.TasksRun)
			}
		})
	}
}

// TestAbandonedResultNotCached: a fresh waiter arriving after an
// abandonment must trigger a fresh execution, not observe a cached
// abandoned error.
func TestAbandonedResultNotCached(t *testing.T) {
	for _, kind := range taskKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := New(Options{Workers: 2})
			defer s.Close()

			ctx, cancel := context.WithCancel(context.Background())
			cancel() // already dead: the wait abandons immediately
			if _, err := kind.quick(ctx, s); !errors.Is(err, context.Canceled) {
				t.Fatalf("submission with dead context = %v, want context.Canceled", err)
			}

			v, err := kind.quick(context.Background(), s)
			if err != nil {
				t.Fatalf("fresh submission after abandonment failed: %v", err)
			}
			if v == nil {
				t.Fatal("fresh submission returned nil result")
			}
		})
	}
}
