package gpucmp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/golden"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sched"
	"gpucmp/internal/sim"
)

// ledgerCells are the cells of one paper-grid pass at scale 16: the
// measurement grid, then every pattern-portable benchmark from its
// canonical schedule on each GPU through OpenCL.
func ledgerCells() []sched.Job {
	jobs := sched.GridJobs(16)
	for _, a := range arch.All() {
		if a.Kind != arch.KindGPU {
			continue
		}
		for _, name := range bench.PatternBenchNames() {
			cfg := bench.NativeConfig("opencl")
			cfg.Scale = 16
			cfg.Pattern, _ = bench.PatternCanonical(name)
			jobs = append(jobs, sched.Job{Benchmark: name, Device: a.Name, Toolchain: "opencl", Config: cfg})
		}
	}
	return jobs
}

// ledgerRow is how the production engine retired one cell's warp
// instructions. Every warp instruction is in exactly one of compiled,
// interp and the four single-op columns.
type ledgerRow struct {
	name                    string
	warp                    int64  // all warp instructions the cell's launches retired
	compiled, interp        int64  // inside fused segments, compiled or interpreted
	bra, bar, ret, op       int64  // one at a time: control flow by kind, then ALU and memory ops
	handBacks, uniFallbacks int64  // compiled micro-ops run by execALUFast
	compiles                int64  // segments compiled to closures
	failed                  string // " failed: " and the error's first line, or empty
}

// TestLedger is the interpreter's cost as counts, the way Table V explains
// the FFT gap with an instruction census rather than a time. For every
// cell of ledgerCells, run in order from an empty compile cache on devices
// that launch their compute units one after another, it records the warp
// instructions by execution path, the compiled micro-ops handed back to
// execALUFast and the block compiles, and compares them with
// testdata/ledger.golden (-update rewrites it). The counts repeat exactly
// at any GOMAXPROCS: compileThreshold counts executions across compute
// units, which run in a fixed order only with Parallel off. Disabling
// block compilation or fusion, or demoting a compiled arm to uALUFull,
// fails here as a count diff.
func TestLedger(t *testing.T) {
	compiler.ResetCompileCache()
	total := ledgerRow{name: "total"}
	var rows []ledgerRow
	for _, j := range ledgerCells() {
		r := ledgerCell(t, j)
		total.add(&r)
		rows = append(rows, r)
	}
	rows = append(rows, total)

	// Fixed widths, so a count that moves changes its own line and the
	// total, never the alignment of the rest.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%-42s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s\n",
		"cell", "warp", "compiled", "interp", "bra", "bar", "ret", "op", "handback", "unifall", "compiles")
	for _, r := range rows {
		fmt.Fprintf(&buf, "%-42s %9d %9d %9d %9d %9d %9d %9d %9d %9d %9d%s\n", r.name, r.warp, r.compiled, r.interp,
			r.bra, r.bar, r.ret, r.op, r.handBacks, r.uniFallbacks, r.compiles, r.failed)
	}

	golden.Check(t, "testdata/ledger.golden", buf.Bytes())
}

// ledgerCell runs one cell on a fresh sequential device and reads its
// counts from the cell's traces and the device's PathCounts.
func ledgerCell(t *testing.T, j sched.Job) ledgerRow {
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
	dev := bench.SimDevice(d)
	dev.Parallel = false
	before := sim.GlobalEngineStats().WarpInstrs["threaded"]
	res, err := spec.Run(d, j.Config)
	name := j.Benchmark + "/" + j.Device + "/" + j.Toolchain
	if j.Config.Pattern != "" {
		name += "/pattern"
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r := ledgerRow{name: strings.ReplaceAll(name, " ", "_")}
	if res.Err != nil {
		// Table VI's aborts: FFT, DXTC, RdxS and STNW ask the Cell/BE for
		// more local memory than it has. The row keeps the counts of any
		// launch that ran before the failure.
		msg, _, _ := strings.Cut(res.Err.Error(), "\n")
		r.failed = " failed: " + msg
	}
	for _, tr := range res.Traces {
		r.warp += tr.Dyn.Total
		r.bra += tr.Branches
		r.bar += tr.Barriers
		r.ret += tr.Dyn.ByOp[ptx.OpKey{Op: ptx.OpRet}]
	}
	if launched := sim.GlobalEngineStats().WarpInstrs["threaded"] - before; launched != r.warp {
		t.Fatalf("%s: the device retired %d warp instructions, its traces hold %d", name, launched, r.warp)
	}
	c := dev.DeviceEngineStats()
	r.compiled, r.interp = c.CompiledOps, c.SegOps-c.CompiledOps
	r.op = r.warp - c.SegOps - r.bra - r.bar - r.ret
	r.handBacks, r.uniFallbacks, r.compiles = c.HandBacks, c.UniFallbacks, c.BlockCompiles
	if r.op < 0 {
		t.Fatalf("%s: %d warp instructions, %d in segments and %d control flow", name, r.warp, c.SegOps, r.bra+r.bar+r.ret)
	}
	return r
}

func (r *ledgerRow) add(q *ledgerRow) {
	r.warp += q.warp
	r.compiled += q.compiled
	r.interp += q.interp
	r.bra += q.bra
	r.bar += q.bar
	r.ret += q.ret
	r.op += q.op
	r.handBacks += q.handBacks
	r.uniFallbacks += q.uniFallbacks
	r.compiles += q.compiles
}
