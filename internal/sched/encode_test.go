package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/ptx"
)

// runSequential executes one grid cell the way a worker does, with the
// device's compute units run in order: scales with a tail (23) have kernels
// that read past their buffers (ROADMAP item 1), which is a data race
// across parallel units and not what this file tests.
func runSequential(t *testing.T, j Job) *bench.Result {
	t.Helper()
	spec, err := bench.SpecByName(j.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Resolve(j.Device)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.NewDriver(j.Toolchain, a)
	if err != nil {
		t.Fatal(err)
	}
	bench.SimDevice(d).Parallel = false
	res, err := spec.Run(d, j.Config)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkEncode holds Encode's bytes to json.Marshal's, twice, so the
// second pass reads every sourced report from its kernel's memo, and
// returns them.
func checkEncode(t *testing.T, what string, res *bench.Result) []byte {
	t.Helper()
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for pass := 1; pass <= 2; pass++ {
		e, err := Encode(res)
		if err != nil {
			t.Fatalf("%s pass %d: %v", what, pass, err)
		}
		if !bytes.Equal(e.JSON, want) {
			t.Fatalf("%s pass %d: Encode differs from Marshal\n got %q\nwant %q", what, pass, e.JSON, want)
		}
		if e.Result != res {
			t.Fatalf("%s: Encoded.Result is not the result encoded", what)
		}
	}
	return want
}

// memoised reports whether a report's encoding is on its kernel.
func memoised(pk *ptx.Kernel) bool {
	absent := new(int)
	return pk.Memo(reportKey{}, func() any { return absent }) != absent
}

// gridDigests is, per scale, the SHA-256 of every grid cell's encoding
// concatenated in GridJobs order: a change to any result byte at any of
// these scales, on any device or toolchain, shows here.
var gridDigests = map[int]string{
	16: "a4981bc9d9b9578ce3497103f3d7c33c69e8324454df81991006d9c5caf905e8",
	23: "843cf3721c93abca78a8cc7f62f086dc03212f0da88ea3c2918cb7159b149845",
	64: "3bbbd28c00368bab7d5008c7b78cc4a9c0a32311461db86e95014c635b861cc0",
}

// patternDigest is the same fold over patternCells(16). Their transfer
// and end-to-end seconds come from the pattern plan's uploads, which no
// grid cell makes.
const patternDigest = "5490eeb6853e4905d905c360912ee802f6f5e0c3671874f524250306d6f64bc6"

// patternCells are the pattern cells of a paper-grid pass: every
// pattern-portable benchmark from its canonical schedule on each GPU
// through OpenCL.
func patternCells(scale int) []Job {
	var jobs []Job
	for _, a := range arch.All() {
		if a.Kind != arch.KindGPU {
			continue
		}
		for _, name := range bench.PatternBenchNames() {
			cfg := bench.NativeConfig("opencl")
			cfg.Scale = scale
			cfg.Pattern, _ = bench.PatternCanonical(name)
			jobs = append(jobs, Job{Benchmark: name, Device: a.Name, Toolchain: "opencl", Config: cfg})
		}
	}
	return jobs
}

// TestEncodeMatchesMarshalGrid: every cell of the measurement grid at
// three scales, one with a tail, and every pattern cell at scale 16,
// encodes to exactly what Marshal makes of it, the encodings fold to the
// pinned digests, and the encoding of every report is left on its kernel.
func TestEncodeMatchesMarshalGrid(t *testing.T) {
	type input struct {
		name   string
		jobs   []Job
		digest string
	}
	var inputs []input
	for _, scale := range []int{16, 23, 64} {
		inputs = append(inputs, input{fmt.Sprintf("grid at scale %d", scale), GridJobs(scale), gridDigests[scale]})
	}
	inputs = append(inputs, input{"pattern cells at scale 16", patternCells(16), patternDigest})
	reports := 0
	for _, in := range inputs {
		h := sha256.New()
		for _, j := range in.jobs {
			what := fmt.Sprintf("%s/%s/%s@%d", j.Benchmark, j.Device, j.Toolchain, j.Config.Scale)
			res := runSequential(t, j)
			h.Write(checkEncode(t, what, res))
			for _, kr := range res.Kernels {
				if pk := kr.Source(); pk == nil || !memoised(pk) {
					t.Fatalf("%s: kernel %s: report has no source or its encoding was not kept", what, kr.Name)
				}
			}
			reports += len(res.Kernels)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != in.digest {
			t.Errorf("%s: digest %s, want %s", in.name, got, in.digest)
		}
	}
	if reports == 0 {
		t.Fatal("the grid produced no kernel reports")
	}
}

// TestHotResultsStaySmall: the results of the cache-hot working set (the
// sixteen benchmarks on each of the three GPUs with its native toolchain,
// at scale 16) encode to at most 5,000 bytes on average. Each distinct
// remark travels once with its count; a remark stream that listed every
// firing would carry 25,703 bytes on average, over 90 KB for FFT alone.
func TestHotResultsStaySmall(t *testing.T) {
	var keys, total int
	for _, j := range GridJobs(16) {
		a, err := arch.Resolve(j.Device)
		if err != nil {
			t.Fatal(err)
		}
		if a.Kind != arch.KindGPU || j.Toolchain != bench.Toolchains(a)[0].Name {
			continue
		}
		e, err := Encode(runSequential(t, j))
		if err != nil {
			t.Fatal(err)
		}
		keys++
		total += len(e.JSON)
	}
	if keys != 48 {
		t.Fatalf("%d hot keys, want 48", keys)
	}
	t.Logf("mean encoded result over %d hot keys: %d bytes", keys, total/keys)
	if mean := total / keys; mean > 5000 {
		t.Errorf("hot results average %d bytes, want at most 5000", mean)
	}
}

// reportedKernel is a hand-built kernel whose remarks need escaping.
func reportedKernel(name string) *ptx.Kernel {
	return &ptx.Kernel{
		Name: name, Toolchain: "opencl", NumRegs: 3, SharedBytes: 16,
		Instrs:    make([]ptx.Instruction, 4),
		PassStats: []ptx.PassStat{{Pass: "dce", InstrsBefore: 5, InstrsAfter: 4, Removed: 1}},
		Remarks: []ptx.Remark{
			{Phase: "frontend<&>", Message: "a<b && c>\"d\" \x00\x01\x1f\t\r\n    \xff"},
			{Phase: "", Message: ""},
		},
	}
}

// TestEncodeMatchesMarshalShapes covers the shapes the grid has none
// of: no kernels at all, reports without a source kernel (decoded from
// JSON, built by hand, mixed with sourced ones), remarks that need escaping,
// and results encoding/json refuses.
func TestEncodeMatchesMarshalShapes(t *testing.T) {
	sourced := bench.ReportKernel(reportedKernel("k<1>"))
	fft := runSequential(t, Job{Benchmark: "FFT", Device: "GeForce GTX480", Toolchain: "cuda", Config: bench.Config{Scale: 64}})
	raw, err := json.Marshal(fft)
	if err != nil {
		t.Fatal(err)
	}
	decoded := new(bench.Result)
	if err := json.Unmarshal(raw, decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Kernels) == 0 || decoded.Kernels[0].Source() != nil {
		t.Fatal("a decoded result should carry reports without a source kernel")
	}
	base := bench.Result{Benchmark: "Reduce", Toolchain: "opencl", Device: "GeForce GTX480", Metric: "GB/sec", Value: 2.5, Correct: true}
	with := func(mod func(r *bench.Result)) *bench.Result {
		r := base
		mod(&r)
		return &r
	}
	for name, res := range map[string]*bench.Result{
		"no kernels":    with(func(r *bench.Result) {}),
		"empty kernels": with(func(r *bench.Result) { r.Kernels = []bench.KernelReport{} }),
		"zero result":   {},
		"aborted": with(func(r *bench.Result) {
			r.Err = errors.New("launch <x> & \"y\"\n")
			r.Kernels = []bench.KernelReport{sourced}
		}),
		"decoded": decoded,
		"by hand": with(func(r *bench.Result) {
			r.Kernels = []bench.KernelReport{{Name: "h", Remarks: []ptx.Remark{{Message: "<&>\x02"}}}}
		}),
		"empty report":     with(func(r *bench.Result) { r.Kernels = []bench.KernelReport{{}} }),
		"escaped, sourced": with(func(r *bench.Result) { r.Kernels = []bench.KernelReport{sourced, sourced} }),
		"mixed":            with(func(r *bench.Result) { r.Kernels = append([]bench.KernelReport{sourced}, decoded.Kernels...) }),
	} {
		checkEncode(t, name, res)
	}

	// A result encoding/json refuses is still an error, and leaves nothing
	// on its kernels.
	fresh := reportedKernel("nan")
	for name, res := range map[string]*bench.Result{
		"NaN": with(func(r *bench.Result) { r.Value = math.NaN() }),
		"NaN with kernels": with(func(r *bench.Result) {
			r.Value = math.NaN()
			r.Kernels = []bench.KernelReport{bench.ReportKernel(fresh)}
		}),
		"-Inf time": with(func(r *bench.Result) { r.KernelSeconds = math.Inf(-1) }),
	} {
		if _, want := json.Marshal(res); want == nil {
			t.Fatalf("%s: Marshal accepted it", name)
		}
		if e, err := Encode(res); err == nil {
			t.Errorf("%s: Encode = %q, want an error", name, e.JSON)
		}
	}
	if memoised(fresh) {
		t.Error("a failed Encode left report bytes on the kernel")
	}
}

// TestEncodeAllocsDoNotGrowWithReports: once its kernels have been encoded,
// a result's allocations are the head's and the output's, however many
// reports it carries.
//
// It compares the fewest allocations of single calls, not a mean. The
// head goes through json.Marshal, which keeps its encode state in a
// sync.Pool; under -race, sync.Pool.Put drops one item in four at random,
// and the next call allocates fresh state. (Encoding a result with no
// kernels took 5 allocations in each of 400 calls without -race; with it,
// 5 to 16, and 5 in about two fifths of the calls.) A mean over 50
// calls then moves by an allocation from run to run, enough to fail a
// strict comparison about half the time. A dropped item, or a GC
// emptying the pool, only ever adds allocations, so the fewest over 100
// calls is the steady-state count and the comparison stays exact: one
// allocation per report, or one per growth of a slice, still fails it.
func TestEncodeAllocsDoNotGrowWithReports(t *testing.T) {
	kr := bench.ReportKernel(reportedKernel("k"))
	allocs := func(n int) float64 {
		res := &bench.Result{Benchmark: "FFT", Toolchain: "cuda", Device: "GeForce GTX480", Metric: "GFlops/sec", Value: 1, Correct: true}
		for i := 0; i < n; i++ {
			res.Kernels = append(res.Kernels, kr)
		}
		if _, err := Encode(res); err != nil {
			t.Fatal(err)
		}
		fewest := math.Inf(1)
		for i := 0; i < 100; i++ {
			fewest = math.Min(fewest, testing.AllocsPerRun(1, func() { Encode(res) })) //nolint:errcheck // checked above
		}
		return fewest
	}
	one, many := allocs(1), allocs(200)
	if many > one {
		t.Errorf("Encode allocates %.0f times for 200 reports, %.0f for one: want no growth", many, one)
	}
	t.Logf("%.0f allocations per Encode, for 1 or 200 reports", one)
}
