package fault_test

// Chaos suite: drives the real scheduler + simulator stack through the
// fault injector at the rates the issue mandates and asserts the
// system-level guarantees hold under -race:
//
//   - at a 30% transient-failure rate every job either succeeds or fails
//     with a typed Permanent error (never an unclassified one);
//   - a job fails only on its own injected faults, never on another
//     job's;
//   - results that succeed after retries are bit-identical to a
//     fault-free run;
//   - hung jobs are reclaimed by the watchdog within JobTimeout plus a
//     bounded grace, and no goroutines leak once the scheduler closes.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
)

// chaosJobs is the small cross-toolchain matrix every chaos test runs:
// cheap, deterministic benchmarks spanning all three metric families.
func chaosJobs() []sched.Job {
	var jobs []sched.Job
	for _, b := range []string{"Reduce", "Scan", "Sobel", "TranP"} {
		for _, tc := range []string{"cuda", "opencl"} {
			j := sched.Job{Benchmark: b, Device: "GeForce GTX480", Toolchain: tc}
			j.Config.Scale = 16
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// baseline runs the matrix fault-free and returns the canonical JSON
// encoding of each result, keyed by job key.
func baseline(t *testing.T, jobs []sched.Job) map[string][]byte {
	t.Helper()
	s := sched.New(sched.Options{Workers: 4})
	defer s.Close()
	want := make(map[string][]byte, len(jobs))
	for _, j := range jobs {
		res, _, err := s.Do(context.Background(), j)
		if err != nil {
			t.Fatalf("fault-free run of %s failed: %v", j.Key(), err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want[j.Key()] = buf
	}
	return want
}

// ownFault reports whether a failed job's error traces to a fault drawn
// for that job itself: its transient launches (retries exhausted), an
// out-of-resources abort, or a watchdog kill of its hang. Faults are drawn
// per job key, so any other cause would mean one job's failures reached
// another.
func ownFault(err error) bool {
	return errors.Is(err, fault.ErrTransientLaunch) ||
		errors.Is(err, fault.ErrOutOfResources) ||
		errors.Is(err, sched.ErrWatchdog)
}

// checkNoGoroutineLeak asserts the goroutine count settles back to (about)
// its pre-test level. Call with the count taken before the scheduler was
// created, after the scheduler has been closed.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var now int
	for time.Now().Before(deadline) {
		now = runtime.NumGoroutine()
		if now <= before+2 { // tolerate runtime/test harness jitter
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after settling", before, now)
}

// TestChaosTransientRate30 is the headline acceptance test: a 30%
// transient launch-failure rate across the whole matrix. Every job must
// either succeed with a result bit-identical to the fault-free run or
// return an error typed Permanent (retry budget exhausted) — nothing may
// hang, leak, or come back with an unclassified error.
func TestChaosTransientRate30(t *testing.T) {
	jobs := chaosJobs()
	want := baseline(t, jobs)

	before := runtime.NumGoroutine()
	inj := fault.New(1, fault.Schedule{TransientRate: 0.3})
	s := sched.New(sched.Options{Workers: 4, Injector: inj})

	type outcome struct {
		key string
		buf []byte
		err error
	}
	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := s.Do(context.Background(), j)
			o := outcome{key: j.Key(), err: err}
			if err == nil {
				o.buf, o.err = json.Marshal(res)
			}
			results[i] = o
		}()
	}
	wg.Wait()

	succeeded, permanent := 0, 0
	for _, o := range results {
		switch {
		case o.err == nil:
			succeeded++
			if string(o.buf) != string(want[o.key]) {
				t.Errorf("job %s: post-retry result differs from fault-free run", o.key)
			}
		case errors.Is(o.err, sched.ErrPermanent):
			permanent++
			if !ownFault(o.err) {
				t.Errorf("job %s: failed on no fault of its own: %v", o.key, o.err)
			}
		default:
			t.Errorf("job %s: untyped error under chaos: %v", o.key, o.err)
		}
	}
	if succeeded == 0 {
		t.Error("no job succeeded at a 30% transient rate; retry path is broken")
	}
	t.Logf("chaos: %d/%d succeeded, %d permanent, %d retries, faults=%v",
		succeeded, len(jobs), permanent, s.Metrics().Snapshot().Retries, inj.Counts())

	s.Close()
	checkNoGoroutineLeak(t, before)
}

// TestChaosHangsReclaimedWithinTimeout: every job hangs; the watchdog must
// hand back a typed Watchdog error within JobTimeout plus a bounded slack,
// reclaim every worker, and leak no goroutines after Close.
func TestChaosHangsReclaimedWithinTimeout(t *testing.T) {
	const jobTimeout = 50 * time.Millisecond
	jobs := chaosJobs()[:4]

	before := runtime.NumGoroutine()
	inj := fault.New(3, fault.Schedule{HangRate: 1.0})
	s := sched.New(sched.Options{
		Workers:     2,
		JobTimeout:  jobTimeout,
		MaxAttempts: 1,
		Injector:    inj,
	})

	var wg sync.WaitGroup
	errCh := make(chan error, len(jobs))
	start := time.Now()
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Do(context.Background(), j)
			errCh <- err
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)

	for err := range errCh {
		if !errors.Is(err, sched.ErrWatchdog) {
			t.Errorf("hung job returned %v, want typed ErrWatchdog", err)
		}
	}
	// 4 jobs over 2 workers = 2 sequential rounds of JobTimeout each.
	if limit := 2*jobTimeout + 2*time.Second; elapsed > limit {
		t.Errorf("hung jobs took %v to come back, want < %v", elapsed, limit)
	}
	m := s.Metrics().Snapshot()
	if m.Timeouts != uint64(len(jobs)) {
		t.Errorf("Timeouts = %d, want %d", m.Timeouts, len(jobs))
	}
	if m.WatchdogReclaims != uint64(len(jobs)) {
		t.Errorf("WatchdogReclaims = %d, want %d", m.WatchdogReclaims, len(jobs))
	}

	s.Close()
	checkNoGoroutineLeak(t, before)
}

// TestChaosMixedSchedule runs faults of several kinds at once, cache
// corruption among them, under two schedules, and asserts the weaker but
// universal invariant: every job terminates with either a result
// bit-identical to the fault-free run or an error typed Permanent or
// Watchdog that traces to its own injected faults, and the process is
// goroutine-clean afterwards.
func TestChaosMixedSchedule(t *testing.T) {
	for _, tt := range []struct {
		name     string
		seed     uint64
		schedule fault.Schedule
	}{
		{
			// Transient launches, out-of-resources, hangs and cache
			// corruption. Seed 7 draws every fault kind at least once
			// across the matrix (4 transients, 2 out-of-resources, 1 hang,
			// 1 corrupted store).
			name: "all-kinds",
			seed: 7,
			schedule: fault.Schedule{
				TransientRate: 0.2,
				OORRate:       0.05,
				HangRate:      0.1,
				CorruptRate:   0.2,
				MaxPerKey:     2,
			},
		},
		{
			// 30% transient launches plus 5% hangs, retried up to the
			// default four attempts.
			name:     "transient-and-hangs",
			seed:     1,
			schedule: fault.Schedule{TransientRate: 0.3, HangRate: 0.05},
		},
	} {
		t.Run(tt.name, func(t *testing.T) {
			jobs := chaosJobs()
			want := baseline(t, jobs)

			before := runtime.NumGoroutine()
			inj := fault.New(tt.seed, tt.schedule)
			// JobTimeout must exceed a real benchmark run (≲1s under
			// -race) so that normally only injected hangs — which block
			// until killed — trip the watchdog, yet stay small enough that
			// each hang costs the test just a few seconds.
			s := sched.New(sched.Options{
				Workers:    4,
				JobTimeout: 3 * time.Second,
				Injector:   inj,
			})

			var wg sync.WaitGroup
			var mu sync.Mutex
			var failures []string
			// Two passes per job: the second pass exercises the
			// checksum-verified cache under CorruptRate and must never
			// serve a corrupted entry.
			for pass := 0; pass < 2; pass++ {
				for _, j := range jobs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						res, _, err := s.Do(context.Background(), j)
						var problem string
						switch {
						case err == nil:
							buf, merr := json.Marshal(res)
							if merr != nil {
								problem = fmt.Sprintf("marshal: %v", merr)
							} else if string(buf) != string(want[j.Key()]) {
								problem = "result differs from fault-free run"
							}
						case errors.Is(err, sched.ErrPermanent), errors.Is(err, sched.ErrWatchdog):
							// typed failure: acceptable under chaos, on the
							// job's own faults only
							if !ownFault(err) {
								problem = fmt.Sprintf("failed on no fault of its own: %v", err)
							}
						default:
							problem = fmt.Sprintf("untyped error: %v", err)
						}
						if problem != "" {
							mu.Lock()
							failures = append(failures, fmt.Sprintf("pass %d job %s: %s", pass, j.Key(), problem))
							mu.Unlock()
						}
					}()
				}
				wg.Wait()
			}
			for _, f := range failures {
				t.Error(f)
			}
			m := s.Metrics().Snapshot()
			t.Logf("mixed chaos: metrics=%+v faults=%v", m, inj.Counts())

			s.Close()
			checkNoGoroutineLeak(t, before)
		})
	}
}
