package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
	"gpucmp/internal/metrics"
)

// fastJob is a small, quick experiment cell used throughout the tests.
func fastJob() Job {
	return Job{
		Benchmark: "Reduce",
		Device:    arch.GTX480().Name,
		Toolchain: "opencl",
		Config:    bench.Config{Scale: 16},
	}
}

func TestKeyIsCanonicalAndComplete(t *testing.T) {
	base := fastJob()
	if base.Key() != fastJob().Key() {
		t.Fatal("identical jobs must share a key")
	}
	// Every field change must change the key.
	variants := []Job{
		{Benchmark: "Scan", Device: base.Device, Toolchain: base.Toolchain, Config: base.Config},
		{Benchmark: base.Benchmark, Device: arch.GTX280().Name, Toolchain: base.Toolchain, Config: base.Config},
		{Benchmark: base.Benchmark, Device: base.Device, Toolchain: "cuda", Config: base.Config},
		{Benchmark: base.Benchmark, Device: base.Device, Toolchain: base.Toolchain, Config: bench.Config{Scale: 8}},
		{Benchmark: base.Benchmark, Device: base.Device, Toolchain: base.Toolchain, Config: bench.Config{Scale: 16, UseTexture: true}},
		{Benchmark: base.Benchmark, Device: base.Device, Toolchain: base.Toolchain, Config: bench.Config{Scale: 16, UnrollA: true}},
		{Benchmark: base.Benchmark, Device: base.Device, Toolchain: base.Toolchain, Config: bench.Config{Scale: 16, NaiveTranspose: true}},
		{Benchmark: base.Benchmark, Device: base.Device, Toolchain: base.Toolchain, Config: bench.Config{Scale: 16, Pattern: "b256.c1.u0.f1.r1.t0.k0"}},
		{Benchmark: base.Benchmark, Device: base.Device, Toolchain: base.Toolchain, Config: bench.Config{Scale: 16, Pattern: "b128.c1.u0.f1.r1.t0.k0"}},
	}
	seen := map[string]bool{base.Key(): true}
	for _, v := range variants {
		if seen[v.Key()] {
			t.Errorf("key collision: %+v -> %s", v, v.Key())
		}
		seen[v.Key()] = true
	}
}

func TestValidate(t *testing.T) {
	if err := fastJob().Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	bad := []Job{
		{Benchmark: "NoSuch", Device: arch.GTX480().Name, Toolchain: "cuda"},
		{Benchmark: "FFT", Device: "NoSuch Device", Toolchain: "cuda"},
		{Benchmark: "FFT", Device: arch.GTX480().Name, Toolchain: "metal"},
		{Benchmark: "FFT", Device: arch.HD5870().Name, Toolchain: "cuda"}, // CUDA on AMD
	}
	for _, j := range bad {
		if err := j.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", j)
		}
	}
}

func TestCacheHitAndMetrics(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	r1, o1, err := s.Do(ctx, fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if o1 != Miss {
		t.Fatalf("first Do outcome = %v, want miss", o1)
	}
	r2, o2, err := s.Do(ctx, fastJob())
	if err != nil {
		t.Fatal(err)
	}
	if o2 != Hit {
		t.Fatalf("second Do outcome = %v, want hit", o2)
	}
	if r1 != r2 {
		t.Error("cache hit should return the identical result pointer")
	}
	snap := s.Metrics().Snapshot()
	if snap.JobsRun != 1 || snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("metrics = jobs %d hits %d misses %d, want 1/1/1",
			snap.JobsRun, snap.CacheHits, snap.CacheMisses)
	}
	if s.CacheLen() != 1 {
		t.Errorf("CacheLen = %d, want 1", s.CacheLen())
	}
	if len(snap.Latency) != 1 || snap.Latency[0].Benchmark != "Reduce" || snap.Latency[0].Count != 1 {
		t.Errorf("latency summary = %+v, want one Reduce entry", snap.Latency)
	}
}

func TestSingleflightDedup(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()
	ctx := context.Background()

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*bench.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Run(ctx, fastJob())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	snap := s.Metrics().Snapshot()
	// All callers hit the same key: exactly one execution, the rest either
	// shared the in-flight task or hit the cache after it completed.
	if snap.JobsRun != 1 {
		t.Errorf("JobsRun = %d, want 1 (singleflight)", snap.JobsRun)
	}
	if got := snap.CacheHits + snap.DedupShared; got != callers-1 {
		t.Errorf("hits+shared = %d, want %d", got, callers-1)
	}
	for _, r := range results {
		if r == nil || r.Value != results[0].Value {
			t.Fatal("deduplicated callers must all see the same result")
		}
	}
}

func TestDisabledCacheReruns(t *testing.T) {
	s := New(Options{Workers: 1, CacheSize: -1})
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := s.Run(ctx, fastJob()); err != nil {
			t.Fatal(err)
		}
	}
	if snap := s.Metrics().Snapshot(); snap.JobsRun != 2 {
		t.Errorf("JobsRun = %d, want 2 with caching disabled", snap.JobsRun)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.add(newEntry("a", nil, nil))
	c.add(newEntry("b", nil, nil))
	c.get("a") // a is now most recent
	c.add(newEntry("d", nil, nil))
	if c.get("b") != nil {
		t.Error("b should have been evicted (least recently used)")
	}
	if c.get("a") == nil {
		t.Error("a should have survived")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestBadJobReturnsErrorAndIsNotCached(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	for _, j := range []Job{
		{Benchmark: "NoSuch", Device: arch.GTX480().Name, Toolchain: "cuda"},
		{Benchmark: "FFT", Device: arch.HD5870().Name, Toolchain: "cuda"}, // CUDA on AMD
	} {
		if res, err := s.Run(ctx, j); res != nil || !errors.Is(err, ErrPermanent) {
			t.Errorf("Run(%s) = %v, %v; want no result and ErrPermanent", j.Key(), res, err)
		}
	}
	if s.CacheLen() != 0 {
		t.Error("failed executions must not be cached")
	}
	// An unknown device error must list the known devices (the same
	// helper the CLI -device flags use).
	j2 := Job{Benchmark: "FFT", Device: "GTX9000", Toolchain: "cuda"}
	_, err := s.Run(ctx, j2)
	if err == nil {
		t.Fatal("expected error for unknown device")
	}
	if want := arch.GTX480().Name; !strings.Contains(err.Error(), want) {
		t.Errorf("device error %q should enumerate known devices (missing %q)", err, want)
	}
}

func TestPanicIsolation(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	// There is no registry hook to inject a panicking benchmark, so drive
	// the worker's isolation wrapper directly.
	_, err := safely(s.metrics, "test-job", func() (*bench.Result, error) { panic("kernel bug") })
	if err == nil || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// The pool must still be serviceable afterwards.
	if _, err := s.Run(ctx, fastJob()); err != nil {
		t.Fatalf("scheduler unusable after panic: %v", err)
	}
	if s.Metrics().Snapshot().Panics != 1 {
		t.Error("panic counter not incremented")
	}
}

func TestCloseIsIdempotentAndRejectsNewJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Close()
	s.Close()
	if _, err := s.Run(context.Background(), fastJob()); err == nil {
		t.Fatal("Run after Close must fail")
	}
}

func TestContextCancelledWaiter(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, Job{Benchmark: "FFT", Device: arch.GTX480().Name, Toolchain: "cuda", Config: bench.Config{Scale: 16}}); err != context.Canceled {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
}

// TestParallelReproducesSequential is the determinism contract behind
// running grid cells on the pool (`/figures/grid`): a grid executed on
// many workers must reproduce
// the sequentially-executed values bit for bit, because the simulator is
// deterministic and jobs share nothing mutable. CI passes no -short, so
// its -race pass runs the whole cross-section.
func TestParallelReproducesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("grid comparison is slow")
	}
	// A cross-section of the grid: every device/toolchain combination over
	// benchmarks with distinct execution shapes (tree reduction, shared
	// tiles, multi-launch scan, warp-width-sensitive radix sort).
	var jobs []Job
	for _, a := range arch.All() {
		for _, tc := range bench.Toolchains(a) {
			for _, name := range []string{"Reduce", "TranP", "Scan", "RdxS"} {
				cfg := bench.NativeConfig(tc.Name)
				cfg.Scale = 16
				jobs = append(jobs, Job{Benchmark: name, Device: a.Name, Toolchain: tc.Name, Config: cfg})
			}
		}
	}

	// Sequential reference, bypassing the scheduler entirely.
	seq := make([]*bench.Result, len(jobs))
	for i, j := range jobs {
		a, err := arch.Resolve(j.Device)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := bench.SpecByName(j.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		d, err := bench.NewDriver(j.Toolchain, a)
		if err != nil {
			t.Fatal(err)
		}
		r, err := spec.Run(d, j.Config)
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = r
	}

	s := New(Options{Workers: 8})
	defer s.Close()
	par := make([]*bench.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par[i], errs[i] = s.Run(context.Background(), j)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}

	for i := range jobs {
		a, b := seq[i], par[i]
		label := fmt.Sprintf("%s/%s/%s", jobs[i].Benchmark, jobs[i].Device, jobs[i].Toolchain)
		if (a.Err == nil) != (b.Err == nil) {
			t.Errorf("%s: abort mismatch: seq=%v par=%v", label, a.Err, b.Err)
			continue
		}
		if a.Value != b.Value {
			t.Errorf("%s: Value %v != %v (must be bit-identical)", label, a.Value, b.Value)
		}
		if a.KernelSeconds != b.KernelSeconds {
			t.Errorf("%s: KernelSeconds %v != %v", label, a.KernelSeconds, b.KernelSeconds)
		}
		if a.Correct != b.Correct {
			t.Errorf("%s: Correct %v != %v", label, a.Correct, b.Correct)
		}
	}
}

// runPastTimeout runs fastJob on s, waits until armed timers are armed on
// clk (the watchdog among them) and advances clk by JobTimeout. It returns
// the job's error.
func runPastTimeout(t *testing.T, s *Scheduler, clk *clock.Fake, armed int) error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), fastJob())
		errCh <- err
	}()
	clk.WaitArmed(armed)
	clk.Advance(s.opts.JobTimeout)
	select {
	case err := <-errCh:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("the job did not come back after its watchdog fired")
		return nil
	}
}

// TestJobTimeout: a job still stalled when the clock passes JobTimeout
// fails typed Watchdog, wrapping context.DeadlineExceeded, and is not
// cached.
func TestJobTimeout(t *testing.T) {
	inj := fault.New(1, fault.Schedule{SlowRate: 1.0, SlowDelay: time.Hour})
	clk := clock.NewFake(time.Now())
	s := New(Options{Workers: 1, JobTimeout: time.Second, Injector: inj, clock: clk})
	defer s.Close()
	err := runPastTimeout(t, s, clk, 2) // the watchdog and the stall
	if !errors.Is(err, ErrWatchdog) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrWatchdog wrapping context.DeadlineExceeded", err)
	}
	if n := s.Metrics().Snapshot().Timeouts; n != 1 {
		t.Errorf("Timeouts = %d, want 1", n)
	}
	if s.CacheLen() != 0 {
		t.Error("timed-out jobs must not be cached")
	}
}

// TestAttemptRunsOnWorker: a job attempt runs on the worker goroutine.
// While a Do job sits in an injected stall, no goroutine started by
// executeAttempt exists, and the stalled attempt is on a goroutine New
// started.
func TestAttemptRunsOnWorker(t *testing.T) {
	inj := fault.New(1, fault.Schedule{SlowRate: 1.0, SlowDelay: time.Hour})
	clk := clock.NewFake(time.Now())
	s := New(Options{Workers: 1, Injector: inj, clock: clk})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := s.Do(ctx, fastJob())
		errCh <- err
	}()
	clk.WaitArmed(1) // the stall
	buf := make([]byte, 1<<20)
	stacks := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n")
	cancel()
	<-errCh
	for _, g := range stacks {
		if strings.Contains(g, "created by gpucmp/internal/sched.(*Scheduler).executeAttempt") {
			t.Errorf("a goroutine was started for the attempt:\n%s", g)
		}
		if strings.Contains(g, "(*Scheduler).executeIsolated") && !strings.Contains(g, "created by gpucmp/internal/sched.New") {
			t.Errorf("the stalled attempt is not on a worker goroutine:\n%s", g)
		}
	}
}

func TestGridJobsDeterministicOrder(t *testing.T) {
	a := GridJobs(2)
	b := GridJobs(2)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("grid sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grid order not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// CUDA cells exist only on NVIDIA devices.
	for _, j := range a {
		if j.Toolchain == "cuda" {
			d, err := arch.Resolve(j.Device)
			if err != nil || d.Vendor != "NVIDIA" {
				t.Fatalf("CUDA job on non-NVIDIA device: %+v", j)
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := metrics.NewHistogram(latencyBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.003) // lands in the (0.0025, 0.005] bucket
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.0025 || p50 > 0.005 {
		t.Errorf("p50 = %v, want within the owning bucket", p50)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != len(latencyBuckets)+1 || cum[len(cum)-1] != 100 {
		t.Errorf("Buckets: %d bounds, final cum %d", len(bounds), cum[len(cum)-1])
	}
}

// TestValidateAllocs: Validate runs twice per /run, at coordinator
// admission and in the worker. It looks the benchmark up in place and
// builds only the one device it names, so a valid job costs the device
// description and the toolchain value, and nothing per registered
// benchmark or modelled device. (It was 9 when every lookup rebuilt its
// table.) The count is the same under -race.
func TestValidateAllocs(t *testing.T) {
	j := fastJob()
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { j.Validate() }); got > 3 { //nolint:errcheck // checked above
		t.Errorf("Validate allocates %.0f times per call, want at most 3", got)
	}
}
