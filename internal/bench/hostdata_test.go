package bench_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/core"
	"gpucmp/internal/sched"
)

// noHostData names the benchmarks whose buffers start as zeros only, so
// they build nothing and hold no memo slot.
var noHostData = []string{"MaxFlops", "DeviceMemory"}

// gridCells is the paper-grid pass at a scale: sched.GridJobs plus every
// pattern benchmark at its canonical schedule on each GPU through OpenCL.
func gridCells(scale int) []sched.Job {
	jobs := sched.GridJobs(scale)
	for _, a := range arch.All() {
		if a.Kind != arch.KindGPU {
			continue
		}
		for _, name := range bench.PatternBenchNames() {
			cfg := bench.NativeConfig("opencl")
			cfg.Scale = scale
			cfg.Pattern, _ = bench.PatternCanonical(name)
			jobs = append(jobs, sched.Job{Benchmark: name, Device: a.Name, Toolchain: "opencl", Config: cfg})
		}
	}
	return jobs
}

// direct runs a job through core.Direct.
func direct(j sched.Job) (*bench.Result, error) {
	a, err := arch.Resolve(j.Device)
	if err != nil {
		return nil, err
	}
	spec, err := bench.SpecByName(j.Benchmark)
	if err != nil {
		return nil, err
	}
	return core.Direct(a, j.Toolchain, spec, j.Config)
}

func runJob(t *testing.T, j sched.Job) *bench.Result {
	t.Helper()
	res, err := direct(j)
	if err != nil {
		t.Fatalf("%s: %v", j.Key(), err)
	}
	return res
}

// TestHostDataBuiltOncePerShape runs the scale-16 grid twice. The first
// pass builds each benchmark's host data once for its one shape; the
// second builds nothing.
func TestHostDataBuiltOncePerShape(t *testing.T) {
	cells := gridCells(16)
	bench.ResetHostMemo()
	for _, j := range cells {
		runJob(t, j)
	}
	builds, slots := bench.HostMemo()
	var want []string
	for _, s := range bench.Registry() {
		if !slices.Contains(noHostData, s.Name) {
			want = append(want, s.Name)
		}
	}
	if builds != len(want) || len(slots) != len(want) {
		t.Fatalf("first pass: %d builds into %d slots, want one per (benchmark, shape) key: %d", builds, len(slots), len(want))
	}
	for _, name := range want {
		if _, ok := slots[name]; !ok {
			t.Errorf("%s holds no slot", name)
		}
	}
	for _, j := range cells {
		runJob(t, j)
	}
	if again, _ := bench.HostMemo(); again != builds {
		t.Errorf("second pass built %d times, want 0", again-builds)
	}
}

// TestHostDataNeverWritten runs every benchmark twice on one shape, on
// different devices and toolchains, and requires its memo slot to be the
// same, word for word, before and after the second run.
func TestHostDataNeverWritten(t *testing.T) {
	for _, spec := range bench.Registry() {
		first := sched.Job{Benchmark: spec.Name, Device: arch.GTX480().Name, Toolchain: "cuda", Config: bench.NativeConfig("cuda")}
		second := sched.Job{Benchmark: spec.Name, Device: arch.HD5870().Name, Toolchain: "opencl", Config: bench.NativeConfig("opencl")}
		first.Config.Scale, second.Config.Scale = 32, 32
		runJob(t, first)
		builds, before := bench.HostMemo()
		runJob(t, second)
		again, after := bench.HostMemo()
		if again != builds {
			t.Errorf("%s: the second run of one shape rebuilt its host data", spec.Name)
		}
		d, ok := before[spec.Name]
		if ok == slices.Contains(noHostData, spec.Name) {
			t.Errorf("%s: holds a slot: %v", spec.Name, ok)
		}
		if ok && after[spec.Name] != d {
			t.Errorf("%s: a run wrote its shared host data", spec.Name)
		}
	}
}

// TestHostDataSharedAcrossGoroutines runs each benchmark's cell of one
// shape on four goroutines at once, each on a different device, from an
// empty memo, so they miss together and then share what was stored. Every
// result must match a sequential run, and under -race the shared data must
// be read-only.
func TestHostDataSharedAcrossGoroutines(t *testing.T) {
	devices := []*arch.Device{arch.GTX480(), arch.GTX280(), arch.HD5870(), arch.Intel920()}
	for _, spec := range bench.Registry() {
		jobs := make([]sched.Job, len(devices))
		want := make([]*bench.Result, len(devices))
		for i, a := range devices {
			jobs[i] = sched.Job{Benchmark: spec.Name, Device: a.Name, Toolchain: "opencl", Config: bench.NativeConfig("opencl")}
			jobs[i].Config.Scale = 32
			want[i] = runJob(t, jobs[i])
		}
		bench.ResetHostMemo()
		got := make([]*bench.Result, len(devices))
		errs := make([]error, len(devices))
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = direct(jobs[i])
			}(i)
		}
		wg.Wait()
		for i, j := range jobs {
			if errs[i] != nil {
				t.Fatalf("%s: %v", j.Key(), errs[i])
			}
			if got[i].Status() != want[i].Status() || got[i].Value != want[i].Value ||
				got[i].EndToEndSeconds != want[i].EndToEndSeconds {
				t.Errorf("%s: concurrent run %s/%g/%g, sequential %s/%g/%g", j.Key(),
					got[i].Status(), got[i].Value, got[i].EndToEndSeconds,
					want[i].Status(), want[i].Value, want[i].EndToEndSeconds)
			}
		}
	}
}

// TestDeviceMemoryAllocatesNoHostZeros: a DeviceMemory cell clears its
// buffers inside device memory. Over what opening the driver and making
// the two allocations commits, the fewest bytes a cell allocates in N runs
// must stay far below its data buffer, which a host slice of zeros would
// cost in full.
func TestDeviceMemoryAllocatesNoHostZeros(t *testing.T) {
	const scale = 4
	spec, err := bench.SpecByName("DeviceMemory")
	if err != nil {
		t.Fatal(err)
	}
	threads := 256 * 1024 / scale
	buf := 4 * 32 * threads // 32 words a thread
	fewest := func(f func()) uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	open := func() bench.Driver {
		d, err := bench.NewDriver("opencl", arch.GTX480())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	device := fewest(func() {
		d := open()
		if _, err := d.Alloc(uint32(buf)); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Alloc(uint32(4 * threads)); err != nil {
			t.Fatal(err)
		}
	})
	cell := fewest(func() {
		if res, err := spec.Run(open(), bench.Config{Scale: scale}); err != nil || res.Err != nil {
			t.Fatal(err, res.Err)
		}
	})
	if extra := int64(cell) - int64(device); extra >= int64(buf/2) {
		t.Errorf("a cell allocates %d bytes over its device memory's %d; its %d-byte buffer is cleared on the host", extra, device, buf)
	} else {
		t.Logf("a cell allocates %d bytes over its device memory's %d (buffer %d bytes)", extra, device, buf)
	}
}
