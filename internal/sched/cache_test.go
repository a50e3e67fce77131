package sched

import (
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

// resultChecksum fingerprints a value through a fresh JSON encoding. The
// scheduler no longer does this on any read — it checksums the bytes it
// stored — so it lives on here, as the way tests compare two results.
func resultChecksum(v any) uint64 {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// flipStoredByte corrupts the encoding the cache holds under key.
func flipStoredByte(t *testing.T, s *Scheduler, c *lruCache, key string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e := c.get(key)
	if e == nil {
		t.Fatalf("no entry under %q", key)
	}
	e.enc[len(e.enc)/2] ^= 0x20
}

// TestFlippedByteInMainCacheEvictsAndReexecutes is the flipped-sum test's
// twin: the checksum is right and a stored byte is wrong. The corrupted
// bytes must never be handed out.
func TestFlippedByteInMainCacheEvictsAndReexecutes(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	j := fastJob()

	first, o, err := s.Do(ctx, j)
	if err != nil || o != Miss {
		t.Fatalf("first Do = %v outcome %v, want clean miss", err, o)
	}
	want := string(first.JSON)
	if _, o, _ := s.Do(ctx, j); o != Hit {
		t.Fatalf("second Do outcome = %v, want hit on the intact entry", o)
	}

	flipStoredByte(t, s, s.cache, j.Key())
	again, o, err := s.Do(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if o != Miss {
		t.Fatalf("Do after corruption: outcome %v, want miss (entry evicted)", o)
	}
	if string(again.JSON) != want {
		t.Error("re-executed encoding must be byte-identical to the original")
	}
	if _, o, _ := s.Do(ctx, j); o != Hit {
		t.Errorf("Do after re-execution: outcome %v, want hit on the fresh entry", o)
	}
	snap := s.Metrics().Snapshot()
	if snap.CacheCorruptions != 1 || snap.JobsRun != 2 {
		t.Errorf("corruptions/jobs = %d/%d, want 1/2", snap.CacheCorruptions, snap.JobsRun)
	}
}

func TestFlippedByteInTenantCacheEvictsAndReexecutes(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	runs := 0
	fn := func(context.Context) (any, error) {
		runs++
		return map[string]string{"report": strings.Repeat("x", 64)}, nil
	}
	do := func() Outcome {
		t.Helper()
		v, o, err := s.DoTask(ctx, "alice", "kernel-submit", "k", fn)
		if err != nil {
			t.Fatal(err)
		}
		if got := v.(map[string]string)["report"]; got != strings.Repeat("x", 64) {
			t.Fatalf("DoTask value = %q", got)
		}
		return o
	}
	if o := do(); o != Miss {
		t.Fatalf("first DoTask outcome = %v, want miss", o)
	}
	if o := do(); o != Hit {
		t.Fatalf("second DoTask outcome = %v, want hit", o)
	}
	flipStoredByte(t, s, s.tenants["alice"], "tenant/alice|k")
	if o := do(); o != Miss {
		t.Fatalf("DoTask after corruption: outcome %v, want miss (entry evicted)", o)
	}
	if o := do(); o != Hit {
		t.Errorf("DoTask after re-execution: outcome %v, want hit", o)
	}
	if n := s.Metrics().Snapshot().CacheCorruptions; n != 1 || runs != 2 {
		t.Errorf("corruptions/executions = %d/%d, want 1/2", n, runs)
	}
}

// TestUnencodableResultIsNotCachedOrServed settles a task with a result
// encoding/json refuses (no benchmark produces one, so the execution's
// outcome is supplied directly): Do gets a Permanent error and no bytes,
// Run still gets the result, and neither cache keeps it.
func TestUnencodableResultIsNotCachedOrServed(t *testing.T) {
	for name, res := range map[string]*bench.Result{
		"NaN value":        {Benchmark: "Reduce", Value: math.NaN(), Correct: true},
		"+Inf value":       {Benchmark: "Reduce", Value: math.Inf(1), Correct: true},
		"-Inf kernel time": {Benchmark: "Reduce", KernelSeconds: math.Inf(-1), Correct: true},
	} {
		s := New(Options{Workers: 1})
		j := fastJob()
		key := j.Key()
		s.mu.Lock()
		call, _ := s.flight.Join(key) // this test leads the call and settles it
		s.mu.Unlock()

		// One Do and one Run join the task in flight, then it completes.
		ctx := context.Background()
		var (
			wg     sync.WaitGroup
			e      *Encoded
			doErr  error
			ran    *bench.Result
			runErr error
		)
		wg.Add(2)
		go func() { defer wg.Done(); e, _, doErr = s.Do(ctx, j) }()
		go func() { defer wg.Done(); ran, runErr = s.Run(ctx, j) }()
		for s.flight.Waiters(key) < 3 {
			time.Sleep(time.Millisecond)
		}
		v, good, err := s.settle(key, res, nil)
		s.finish(s.jobTask(call, j, key), v, good, err)
		wg.Wait()

		if !errors.Is(doErr, ErrPermanent) || ClassOf(doErr) != Permanent {
			t.Errorf("%s: Do err = %v, want Permanent", name, doErr)
		}
		if e == nil || e.Result != res || e.JSON != nil {
			t.Errorf("%s: Do result = %+v, want the result and no bytes", name, e)
		}
		if ran != res || runErr != nil {
			t.Errorf("%s: Run = %v, %v, want the result", name, ran, runErr)
		}
		if s.CacheLen() != 0 || len(s.flight.calls) != 0 {
			t.Errorf("%s: cache/flight = %d/%d entries, want none",
				name, s.CacheLen(), len(s.flight.calls))
		}
		s.Close()
	}
}

// tenKBJob is a job whose encoding is about 10 KB, the median /run reply.
func tenKBJob() Job {
	return Job{Benchmark: "St2D", Device: arch.GTX480().Name, Toolchain: "cuda", Config: bench.Config{Scale: 16}}
}

// TestDoHitAllocsDoNotGrowWithResult pins what a hit costs: no encoding,
// so nothing allocated in proportion to the result — rendering the job key
// is all of it. Both numbers count every goroutine's allocations, hence
// bounds with slack rather than exact values (a hit makes 4 allocations,
// 160 bytes; re-marshalling made 13 KB for the smaller result).
func TestDoHitAllocsDoNotGrowWithResult(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	big := Job{Benchmark: "FFT", Device: arch.GTX480().Name, Toolchain: "cuda", Config: bench.Config{Scale: 16}}
	for _, j := range []Job{tenKBJob(), big} {
		e, _, err := s.Do(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		hit := func() {
			if _, o, err := s.Do(ctx, j); err != nil || o != Hit {
				t.Fatalf("Do = %v, %v, want a hit", o, err)
			}
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, hit)
		runtime.ReadMemStats(&after)
		perHit := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if allocs > 8 || perHit > 1024 {
			t.Errorf("hit on a %d-byte result: %.0f allocations, %d bytes; want <= 8 and <= 1024 whatever the size",
				len(e.JSON), allocs, perHit)
		}
	}
}

// BenchmarkDoHit is Scheduler.Do on a warmed key — key rendering, lookup,
// checksum over the stored bytes — from one goroutine and from GOMAXPROCS.
func BenchmarkDoHit(b *testing.B) {
	s := New(Options{})
	defer s.Close()
	ctx := context.Background()
	j := tenKBJob()
	e, _, err := s.Do(ctx, j)
	if err != nil {
		b.Fatal(err)
	}
	hit := func(b *testing.B) {
		if _, o, err := s.Do(ctx, j); err != nil || o != Hit {
			b.Errorf("Do = %v, %v, want a hit", o, err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(e.JSON)))
		for i := 0; i < b.N; i++ {
			hit(b)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(e.JSON)))
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				hit(b)
			}
		})
	})
}
