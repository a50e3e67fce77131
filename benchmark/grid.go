package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/core"
	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/sched"
	"gpucmp/internal/sim"
)

// gridScale is the problem-size divisor of the measured grid. The paper's
// users run scale 1, where one pass takes 12 s on this host; at scale 2
// kernel launches are still the larger half of a cell, and there is room for
// the repeated passes the median needs.
const gridScale = 2

// gridRoundSeconds is what one pass over the grid takes on the 2-core
// reference host; Rounds divides the requested length by it.
const gridRoundSeconds = 5.5

// warmScale is the problem size of the set-up's warm-up cells.
const warmScale = 64

//go:embed golden/paper-grid.json
var goldenBlob []byte

// goldenCell is what the reference engine, run sequentially, produced for
// one cell. Floats survive the JSON round trip bit for bit.
type goldenCell struct {
	Key           string  `json:"key"`
	Status        string  `json:"status"`
	Value         float64 `json:"value"`
	KernelSeconds float64 `json:"kernel_seconds"`
	WarpInstrs    int64   `json:"warp_instrs"`
}

// gridCells is the operation list of one pass: the full measurement grid
// with native configurations, plus every pattern-portable benchmark from
// its canonical schedule on each GPU through OpenCL.
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

// cellOutcome reduces a run to the fields the golden file pins.
func cellOutcome(key string, res *bench.Result, err error) goldenCell {
	if err != nil {
		return goldenCell{Key: key, Status: "ERR"}
	}
	c := goldenCell{Key: key, Status: res.Status(), Value: res.Value, KernelSeconds: res.KernelSeconds}
	for _, tr := range res.Traces {
		c.WarpInstrs += tr.Dyn.Total
	}
	return c
}

// resolve looks a job's names up; the lists above hold valid names only.
func resolve(j sched.Job) (*arch.Device, bench.Spec) {
	a, err := arch.Resolve(j.Device)
	if err != nil {
		panic(err)
	}
	spec, err := bench.SpecByName(j.Benchmark)
	if err != nil {
		panic(err)
	}
	return a, spec
}

// writeGolden regenerates the golden outcomes for the given scales with the
// reference engine, one compute unit at a time.
func writeGolden(scales ...int) ([]byte, error) {
	var cells []goldenCell
	for _, scale := range scales {
		for _, j := range gridCells(scale) {
			a, spec := resolve(j)
			d, err := bench.NewDriver(j.Toolchain, a)
			if err != nil {
				return nil, err
			}
			dev := bench.SimDevice(d)
			dev.Engine = sim.EngineReference
			dev.Parallel = false
			res, err := spec.Run(d, j.Config)
			cells = append(cells, cellOutcome(j.Key(), res, err))
		}
	}
	// One cell per line, so a changed outcome is a one-line diff.
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, c := range cells {
		line, err := json.Marshal(c)
		if err != nil {
			return nil, fmt.Errorf("golden: %s: %w", c.Key, err)
		}
		b.Write(line)
		if i < len(cells)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes(), nil
}

func loadGolden(blob []byte) (map[string]goldenCell, error) {
	var cells []goldenCell
	if err := json.Unmarshal(blob, &cells); err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	m := make(map[string]goldenCell, len(cells))
	for _, c := range cells {
		m[c.Key] = c
	}
	return m, nil
}

// paperGrid is the paper-grid workload: every pass runs the same cells
// through core.Direct, in an order the seed shuffles.
type paperGrid struct {
	scale   int
	rounds  int
	traced  int // cells the traced run replays
	cells   []sched.Job
	golden  map[string]goldenCell
	order   [][]int // per round, a permutation of the cells
	seed    int64
	ballast []byte // see newBallast
}

func newPaperGrid(scale, seconds int) *paperGrid {
	g := &paperGrid{scale: scale, rounds: roundsFor(seconds, gridRoundSeconds)}
	g.traced = len(gridCells(scale)) // the whole first pass
	return g
}

func (g *paperGrid) Name() string { return "paper-grid" }
func (g *paperGrid) Verify() int  { return 0 }

func (g *paperGrid) Rounds() int { return g.rounds }

func (g *paperGrid) Close() { g.ballast = nil }

func (g *paperGrid) Setup(seed int64) error {
	g.seed = seed
	g.ballast = newBallast()
	g.cells = gridCells(g.scale)
	var err error
	if g.golden, err = loadGolden(goldenBlob); err != nil {
		return err
	}
	for _, j := range g.cells {
		if _, ok := g.golden[j.Key()]; !ok {
			return fmt.Errorf("golden: no entry for %s; run go run ./benchmark -write-golden", j.Key())
		}
	}
	g.order = nil
	// Warm-up: every benchmark once per toolchain, small, from an empty
	// compile cache, so the first timed pass does not pay for lazy set-up.
	compiler.ResetCompileCache()
	gpu := arch.GTX480()
	for _, j := range g.cells {
		if j.Device != gpu.Name {
			continue
		}
		_, spec := resolve(j)
		cfg := j.Config
		cfg.Scale = warmScale
		if _, err := core.Direct(gpu, j.Toolchain, spec, cfg); err != nil {
			return fmt.Errorf("warm-up %s: %w", j.Key(), err)
		}
	}
	return nil
}

// perm returns round r's cell order.
func (g *paperGrid) perm(r int) []int {
	for len(g.order) <= r {
		rng := rand.New(rand.NewSource(g.seed*1000003 + int64(len(g.order))))
		g.order = append(g.order, rng.Perm(len(g.cells)))
	}
	return g.order[r]
}

func (g *paperGrid) Round(r int) []opResult {
	out := make([]opResult, len(g.cells))
	for _, i := range g.perm(r) {
		j := g.cells[i]
		a, spec := resolve(j)
		t0 := time.Now()
		res, err := core.Direct(a, j.Toolchain, spec, j.Config)
		out[i] = opResult{Latency: time.Since(t0), OK: cellOutcome(j.Key(), res, err) == g.golden[j.Key()]}
	}
	return out
}

// tracedDriver decorates a bench.Driver with spans around the calls a
// benchmark makes into the compiler (Build), the runtime's copies
// (Alloc/Write/Read) and the simulator (Launch). bench.ExecSeconds,
// TransferSeconds and KernelReports type-switch on the concrete drivers and
// read zero through it, so the two cells whose Value comes from ExecSeconds
// (MaxFlops, DeviceMemory) are never run decorated.
type tracedDriver struct {
	bench.Driver
	t       *tracer
	parent  int64
	kernels []*kir.Kernel // every kernel Build saw, for the cold-compile probe
	// launches holds each Launch's kernel name and wall seconds, in order.
	launches []launchRec
}

type launchRec struct {
	kernel  string
	seconds float64
}

func (d *tracedDriver) Alloc(bytes uint32) (bench.Buf, error) {
	s := d.t.begin(d.parent, "runtime", "alloc")
	defer d.t.end(s)
	return d.Driver.Alloc(bytes)
}

func (d *tracedDriver) Write(dst bench.Buf, words []uint32) error {
	s := d.t.begin(d.parent, "runtime", "write")
	defer d.t.end(s)
	return d.Driver.Write(dst, words)
}

func (d *tracedDriver) Read(dst []uint32, src bench.Buf) error {
	s := d.t.begin(d.parent, "runtime", "read")
	defer d.t.end(s)
	return d.Driver.Read(dst, src)
}

func (d *tracedDriver) Build(kernels ...*kir.Kernel) (bench.Module, error) {
	d.kernels = append(d.kernels, kernels...)
	s := d.t.begin(d.parent, "compiler", "build")
	defer d.t.end(s)
	return d.Driver.Build(kernels...)
}

func (d *tracedDriver) Launch(m bench.Module, kernel string, grid, block sim.Dim3, args ...bench.Arg) error {
	s := d.t.begin(d.parent, "sim", "launch "+kernel)
	err := d.Driver.Launch(m, kernel, grid, block, args...)
	d.launches = append(d.launches, launchRec{kernel, d.t.end(s).Seconds()})
	return err
}

// usesExecSeconds names the cells traced at whole-cell granularity.
func usesExecSeconds(benchmark string) bool {
	return benchmark == "MaxFlops" || benchmark == "DeviceMemory"
}

// Trace replays the first pass cell by cell, with spans on and with spans
// off, and probes the layers a cell crosses.
func (g *paperGrid) Trace(t *tracer) (layerMetrics, error) {
	lm := newLayerMetrics()
	order := g.perm(0)[:g.traced]
	var execNanos int64
	var launchSeconds, launchInstrs float64 // over the decorated cells
	var firstOverSteady []float64
	var kernels []*kir.Kernel
	var results []*bench.Result

	traced := func(i int) float64 {
		j := g.cells[order[i]]
		a, spec := resolve(j)
		root := t.begin(0, "bench", j.Key())
		s := t.begin(root, "sim", "newdriver")
		d, err := bench.NewDriver(j.Toolchain, a)
		t.end(s)
		td := &tracedDriver{Driver: d, t: t, parent: root}
		var res *bench.Result
		switch {
		case err != nil:
		case usesExecSeconds(j.Benchmark):
			res, err = spec.Run(d, j.Config)
		default:
			res, err = spec.Run(td, j.Config)
		}
		seconds := t.end(root).Seconds()

		lm.attempted++
		if cellOutcome(j.Key(), res, err) != g.golden[j.Key()] {
			lm.failed++
		}
		if err != nil {
			return seconds
		}
		results = append(results, res)
		if usesExecSeconds(j.Benchmark) {
			return seconds
		}
		kernels = append(kernels, td.kernels...)
		execNanos += bench.SimDevice(d).ExecNanos()
		perKernel := map[string][]float64{}
		for _, l := range td.launches {
			launchSeconds += l.seconds
			perKernel[l.kernel] = append(perKernel[l.kernel], l.seconds)
		}
		for _, tr := range res.Traces {
			launchInstrs += float64(tr.Dyn.Total)
		}
		// Predecode and fusion happen on a kernel's first launch on a
		// device: compare it with the kernel's later launches.
		for _, v := range perKernel {
			if len(v) >= 3 {
				firstOverSteady = append(firstOverSteady, v[0]/median(v[1:]))
			}
		}
		return seconds
	}
	untraced := func(i int) float64 {
		j := g.cells[order[i]]
		a, spec := resolve(j)
		t0 := time.Now()
		core.Direct(a, j.Toolchain, spec, j.Config) //nolint:errcheck // the traced twin checks the outcome
		return time.Since(t0).Seconds()
	}
	c0 := readProcessCounters()
	tr, un := pairedReplay(len(order), traced, untraced)
	c1 := readProcessCounters()
	lm.addCounterDeltas(c0, c1, lm.addOverhead(tr, un))

	lm.addSelfTimes(t, map[string]string{"bench": "bench.host_self_ms"})
	lm.p50("bench.newdriver_ms", t.durations("sim", "newdriver"), "ms")
	lm.p50("sim.launch_wall_ms", t.durations("sim", "launch"), "ms")
	lm.p50("compiler.build_ms", t.durations("compiler", ""), "ms")
	lm.p50("runtime.transfer_ms", t.durations("runtime", ""), "ms")
	lm.set("sim.first_launch_over_steady", median(firstOverSteady), "ratio", len(firstOverSteady))
	if launchSeconds > 0 {
		lm.set("sim.mwi_per_launch_s", launchInstrs/1e6/launchSeconds, "1e6/s", len(order))
		// Device.ExecNanos is interpreter time inside Launch, so it cannot
		// exceed the launches' wall time; far below 1 with Parallel on means
		// the counter is a critical path, not wall time.
		lm.set("sim.execnanos_over_wall", float64(execNanos)/1e9/launchSeconds, "ratio", len(order))
	}
	probeDeviceNew(lm)
	probeColdCompile(lm, kernels)
	probePatternLower(lm, g.cells)
	probeKernelTime(lm, results)
	return lm, nil
}

// probeColdCompile compiles each captured kernel, once per name, with both
// personalities, bypassing the compile cache.
func probeColdCompile(lm layerMetrics, kernels []*kir.Kernel) {
	var secs, instrs []float64
	seen := map[string]bool{}
	for _, k := range kernels {
		if seen[k.Name] {
			continue
		}
		seen[k.Name] = true
		for _, p := range []compiler.Personality{compiler.CUDA(), compiler.OpenCL()} {
			t0 := time.Now()
			pk, err := compiler.CompileWithConfig(k, compiler.Config{Personality: p})
			if err != nil {
				continue
			}
			secs = append(secs, time.Since(t0).Seconds())
			instrs = append(instrs, float64(len(pk.Instrs)))
		}
	}
	lm.p50("compiler.cold_compile_ms", secs, "ms")
	lm.set("compiler.instrs_out", median(instrs), "count", len(instrs))
}

// probePatternLower times pattern.Lower on the pattern cells' programs.
func probePatternLower(lm layerMetrics, cells []sched.Job) {
	var v []float64
	for _, j := range cells {
		if j.Config.Pattern == "" {
			continue
		}
		p, _ := bench.PatternProgram(j.Benchmark)
		shape, _ := bench.PatternShape(j.Benchmark, j.Config)
		s, err := pattern.ParseSchedule(j.Config.Pattern)
		if err != nil {
			continue
		}
		t0 := time.Now()
		if _, err := pattern.Lower(p, s, shape); err == nil {
			v = append(v, time.Since(t0).Seconds())
		}
	}
	lm.p50("pattern.lower_ms", v, "ms")
}

// probeKernelTime replays perfmodel.KernelTime over the cells' launch
// traces: per cell, the time the model takes for all of its launches.
func probeKernelTime(lm layerMetrics, results []*bench.Result) {
	var v []float64
	for _, res := range results {
		a := arch.ByName(res.Device)
		tc := perfmodel.ToolchainFor(res.Toolchain)
		if a == nil || len(res.Traces) == 0 {
			continue
		}
		t0 := time.Now()
		for _, tr := range res.Traces {
			perfmodel.KernelTime(a, tc, tr)
		}
		v = append(v, time.Since(t0).Seconds())
	}
	lm.p50("perfmodel.kerneltime_us", v, "us")
}
