package fuzz

// Microbenchmarks over Generate(1..100), the pool the repo benchmark's
// fuzz-oracle workload times, so these numbers and that workload cannot
// drift apart: one op is one program through what the name says.
//
//	go test -run '^$' -bench 'Pool$' -benchtime 20x -benchmem ./internal/fuzz

import (
	"errors"
	"runtime"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

func benchPool() []*Program {
	pool := make([]*Program, 100)
	for i := range pool {
		pool[i] = Generate(uint64(i+1), DefaultConfig())
	}
	return pool
}

// compileBoth compiles the program with both personalities.
func compileBoth(tb testing.TB, p *Program) []*ptx.Kernel {
	var pks []*ptx.Kernel
	for _, pers := range Toolchains() {
		pk, err := compiler.Compile(p.Kernel, pers)
		if err != nil {
			tb.Fatal(err)
		}
		pks = append(pks, pk)
	}
	return pks
}

// BenchmarkCheckPool is the whole oracle: reference, two compiles, ten
// executions.
func BenchmarkCheckPool(b *testing.B) {
	pool := benchPool()
	devices := arch.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Check(pool[i%len(pool)], devices)
		if err != nil || res.Divergence != nil {
			b.Fatalf("seed %d: %v %v", pool[i%len(pool)].Seed, err, res)
		}
	}
}

// BenchmarkCompilePool is the two cold compiles of one program.
func BenchmarkCompilePool(b *testing.B) {
	pool := benchPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileBoth(b, pool[i%len(pool)])
	}
}

// BenchmarkExecutePool is the ten executions of one program (both kernels
// on every device), each on a fresh device as in Check.
func BenchmarkExecutePool(b *testing.B) {
	pool := benchPool()
	devices := arch.All()
	compiled := make([][]*ptx.Kernel, len(pool))
	for i, p := range pool {
		compiled[i] = compileBoth(b, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pool[i%len(pool)]
		for _, pk := range compiled[i%len(pool)] {
			for _, a := range devices {
				// As in Check, a device that cannot hold the kernel is a skip.
				if _, _, err := Execute(p, pk, a); err != nil && !errors.Is(err, sim.ErrOutOfResources) {
					b.Fatalf("seed %d on %s: %v", p.Seed, a.Name, err)
				}
			}
		}
	}
}

// TestCompileAllocs pins what value numbering costs in objects. With the
// table keyed by formatted strings, both compiles of seed 1 made 1291
// allocations (pool average 1998); keyed by a struct they make 337 (425).
func TestCompileAllocs(t *testing.T) {
	p := Generate(1, DefaultConfig())
	const parent = 1291
	got := testing.AllocsPerRun(20, func() { compileBoth(t, p) })
	t.Logf("both compiles of seed 1: %.0f allocations", got)
	if got > 0.40*parent {
		t.Errorf("both compiles of seed 1 allocate %.0f objects, want at most 40%% of the %d before struct keys", got, parent)
	}
}

// TestExecuteBytes pins what one execution costs in bytes. With an eagerly
// zeroed 64 KiB constant segment per device, seed 1 on GTX480 allocated
// 129138 bytes per Execute; with the segment committed lazily, 63320.
func TestExecuteBytes(t *testing.T) {
	p := Generate(1, DefaultConfig())
	pk := compileBoth(t, p)[0]
	a := arch.GTX480()
	const runs, parent = 20, 129138
	run := func() {
		if _, _, err := Execute(p, pk, a); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("Execute of seed 1 on %s: %.0f bytes", a.Name, got)
	if got > 0.70*parent {
		t.Errorf("Execute allocates %.0f bytes per run, want at most 70%% of the %d before the lazy constant segment", got, parent)
	}
}
