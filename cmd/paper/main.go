// Command paper regenerates the paper's evaluation as text tables:
//
//	paper [flags] <id>...
//
// The ids fig1 … fig8, tableV and tableVI are the paper's figures and
// tables, run from the figure table in internal/core that GET
// /figures/{id} also serves. The same table holds the repository's own
// studies around them:
//
//	grid     every benchmark on every device and toolchain, with transfer
//	         and end-to-end times beside each kernel time
//	tune     the Section VI auto-tuner over each benchmark's step-4 knobs
//	pattern  autotuned rewrite-rule schedules against each pattern
//	         benchmark's default kernel source, per GPU
//	coexec   Section IV′ (device rankings with transfers counted),
//	         co-execution across devices, and recovery from a lost device
//
// Three more ids drill into the paper's figures:
//
//	fair     the eight-step fair-comparison audit (Section IV-C, Fig. 9)
//	         of one benchmark, then the Section V gap-closing study: each
//	         NVOPENCC optimisation the OpenCL front-end lacks, ported one
//	         named knob at a time
//	profile  one benchmark's simulator profile: per-launch timing
//	         decomposition, occupancy, dynamic instruction mix and memory
//	         counters, the drill-down behind Section IV's analyses
//	passes   the instruction-mix delta each back-end pass makes to the FFT
//	         forward kernel under both front-ends
//
// Several ids print one after another, a blank line apart.
package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/compiler"
	"gpucmp/internal/core"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
	"gpucmp/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "problem-size divisor (1 = full size)")
	device := fs.String("device", "", "run on this device only (default: the figure's devices; GeForce GTX280 for fair, GeForce GTX480 for profile)")
	name := fs.String("bench", "", "benchmark for fair (default MD) and profile (default FFT), by its Table II name")
	toolchain := fs.String("toolchain", "opencl", "toolchain profile runs: cuda or opencl")
	verbose := fs.Bool("v", false, "tableV: add both PTX listings; fair: add each knob's solo effect, pass statistics and remark count")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paper [flags] <id>...\nids: %s, fair, profile, passes\n",
			strings.Join(core.FigureIDs(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return errors.New("no id given")
	}
	var dev *arch.Device
	if *device != "" {
		var err error
		if dev, err = arch.Resolve(*device); err != nil {
			return err
		}
	}
	for i, id := range fs.Args() {
		var buf bytes.Buffer
		if i > 0 {
			buf.WriteByte('\n')
		}
		var err error
		switch id {
		case "fair":
			err = fair(&buf, cmp.Or(dev, arch.GTX280()), cmp.Or(*name, "MD"), *scale, *verbose)
		case "profile":
			err = profile(&buf, cmp.Or(dev, arch.GTX480()), cmp.Or(*name, "FFT"), *toolchain, *scale)
		case "passes":
			err = passReport(&buf)
		default:
			f, ok := core.FigureByID(id)
			if !ok {
				return fmt.Errorf("unknown id %q; known ids: %s, fair, profile, passes",
					id, strings.Join(core.FigureIDs(), ", "))
			}
			devices := f.Devices()
			if dev != nil {
				devices = []*arch.Device{dev}
			}
			err = f.Print(&buf, core.Direct, devices, *scale, *verbose)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// fair audits the native configuration pair of one benchmark, reports
// where the eight steps diverge and who is responsible, then equalises the
// programmer-controlled steps and shows how the PerformanceRatio moves
// toward parity. It ends with the Section V study that closes the residual
// step-5 gap one front-end knob at a time.
func fair(w io.Writer, a *arch.Device, name string, scale int, verbose bool) error {
	spec, err := bench.SpecByName(name)
	if err != nil {
		return err
	}

	// Step A: the native comparison, as a Fig. 3 user would run it.
	cuCfg := bench.NativeConfig("cuda")
	cuCfg.Scale = scale
	clCfg := bench.NativeConfig("opencl")
	clCfg.Scale = scale

	fmt.Fprintf(w, "=== native (unmodified) comparison of %s on %s ===\n", name, a.Name)
	audit := core.Audit(
		core.DescribeSetup("cuda", name, a.Name, cuCfg, 128),
		core.DescribeSetup("opencl", name, a.Name, clCfg, 128))
	fmt.Fprint(w, audit)
	native, err := core.Compare(core.Direct, a, spec, cuCfg, clCfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "native PR = %.3f\n\n", native.PR)

	// Step B: equalise the programmer-controlled steps (same step-4
	// optimisation choices on both sides).
	fairCfg := cuCfg
	fmt.Fprintf(w, "=== fair comparison: identical step-4 optimisations on both sides ===\n")
	audit = core.Audit(
		core.DescribeSetup("cuda", name, a.Name, fairCfg, 128),
		core.DescribeSetup("opencl", name, a.Name, fairCfg, 128))
	fmt.Fprint(w, audit)
	if !audit.ProgrammerFair() {
		return errors.New("internal error: equalised setups should be programmer-fair")
	}
	fairCmp, err := core.Compare(core.Direct, a, spec, fairCfg, fairCfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fair PR = %.3f", fairCmp.PR)
	if core.Similar(fairCmp.PR) {
		fmt.Fprint(w, "  (|1-PR| < 0.1: the programming models perform alike)")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The remaining mismatch is step 5 — the front-end compilers themselves —")
	fmt.Fprintln(w, "which is the paper's residual explanation for gaps like the FFT's.")

	// Step C: close the step-5 gap itself. Each NVOPENCC optimisation the
	// OpenCL front-end lacks is a named knob; port them across one at a
	// time and re-measure after every step (Section V).
	fmt.Fprintln(w)
	fmt.Fprintf(w, "=== Section-V gap closing: porting front-end optimisations one knob at a time ===\n")
	study, err := core.GapClosingStudy(a)
	if err != nil {
		return err
	}
	fmt.Fprint(w, study)
	if verbose {
		for _, step := range study.Steps {
			fmt.Fprintf(w, "\n+%s: %s\n", step.Knob, step.Description)
			fmt.Fprintf(w, "  solo effect: %.2f us (vs base %.2f us)\n",
				step.SoloSeconds*1e6, study.BaseSeconds*1e6)
			fmt.Fprintf(w, "  front-end remarks: %d\n", step.Remarks)
			for _, ps := range step.PassStats {
				fmt.Fprintf(w, "  %s\n", ps)
			}
		}
	}
	return nil
}

// profile runs one benchmark and prints the simulator's full profile.
func profile(w io.Writer, a *arch.Device, name, toolchain string, scale int) error {
	spec, err := bench.SpecByName(name)
	if err != nil {
		return err
	}
	d, err := bench.NewDriver(toolchain, a)
	if err != nil {
		return err
	}
	cfg := bench.NativeConfig(toolchain)
	cfg.Scale = scale
	res, err := spec.Run(d, cfg)
	if err != nil {
		return err
	}
	if res.Err != nil {
		return fmt.Errorf("benchmark aborted: %w", res.Err)
	}

	fmt.Fprintf(w, "%s on %s via %s: %.4g %s (status %s)\n\n",
		res.Benchmark, res.Device, res.Toolchain, res.Value, res.Metric, res.Status())

	lt := stats.NewTable("per-launch timing (microseconds)",
		"kernel", "grid", "block", "occupancy", "launch", "issue", "memory", "latency", "total", "bound")
	for i, tr := range res.Traces {
		b := perfmodel.KernelTime(a, d.Toolchain().Costs, tr)
		bound := "issue"
		if b.Memory >= b.Issue && b.Memory >= b.Latency {
			bound = "memory"
		} else if b.Latency >= b.Issue {
			bound = "latency"
		}
		lt.Add(tr.Kernel,
			fmt.Sprintf("%dx%d", tr.Grid.X, tr.Grid.Y),
			fmt.Sprintf("%dx%d", tr.Block.X, tr.Block.Y),
			tr.ResidentGroups,
			fmt.Sprintf("%.1f", b.Launch*1e6),
			fmt.Sprintf("%.1f", b.Issue*1e6),
			fmt.Sprintf("%.1f", b.Memory*1e6),
			fmt.Sprintf("%.1f", b.Latency*1e6),
			fmt.Sprintf("%.1f", b.Total*1e6),
			bound)
		if i >= 15 {
			lt.Add("...", "", "", "", "", "", "", "", "", "")
			break
		}
	}
	fmt.Fprintln(w, lt)

	// Aggregate dynamic instruction mix.
	dyn := ptx.NewStats()
	for _, tr := range res.Traces {
		dyn.Merge(tr.Dyn)
	}
	it := stats.NewTable("dynamic warp-instruction mix", "class", "count", "share")
	for c := ptx.Class(0); c < ptx.NumClasses; c++ {
		if dyn.Class(c) == 0 {
			continue
		}
		it.Add(c.String(), dyn.Class(c), stats.Pct(float64(dyn.Class(c))/float64(dyn.Total)))
	}
	it.Add("TOTAL", dyn.Total, "100.0%")
	fmt.Fprintln(w, it)

	mt := stats.NewTable("memory system", "counter", "value")
	var m sim.MemCounters
	for _, tr := range res.Traces {
		m.Add(&tr.Mem)
	}
	mt.Add("global load transactions (DRAM)", m.GlobalLoadTrans)
	mt.Add("global store transactions (DRAM)", m.GlobalStoreTrans)
	if m.L1Hits+m.L1Misses > 0 {
		mt.Add("L1 hit rate", stats.Pct(float64(m.L1Hits)/float64(m.L1Hits+m.L1Misses)))
	}
	if m.TexHits+m.TexMisses > 0 {
		mt.Add("texture cache hit rate", stats.Pct(float64(m.TexHits)/float64(m.TexHits+m.TexMisses)))
		mt.Add("texture DRAM fetches", m.TexTrans)
	}
	mt.Add("constant accesses", m.ConstAccesses)
	if m.SharedAccesses > 0 {
		mt.Add("shared accesses", m.SharedAccesses)
		mt.Add("shared serialization factor", fmt.Sprintf("%.2f", float64(m.SharedSerial)/float64(m.SharedAccesses)))
	}
	mt.Add("local-memory DRAM transactions", m.LocalTrans)
	mt.Add("atomic operations", m.AtomicOps)
	mt.Add("total DRAM bytes", m.DRAMBytes(a.GlobalSegmentSize))
	fmt.Fprintln(w, mt)
	return nil
}

// passReport compiles the FFT forward kernel under both personalities with
// the pipeline observer attached and renders, for every back-end pass, the
// instruction-mix rows it changed. Output is deterministic: identical
// configs compile to bit-identical PTX, so this is golden-file tested.
func passReport(w io.Writer) error {
	k := bench.FFTKernel()
	for _, p := range []compiler.Personality{compiler.CUDA(), compiler.OpenCL()} {
		fmt.Fprintf(w, "===== %s: back-end pass deltas for the FFT forward kernel =====\n", p.Name)
		cfg := compiler.Config{
			Personality: p,
			Observer: func(pass compiler.Pass, before, after *ptx.Stats) {
				fmt.Fprintf(w, "\npass %s — %s\n%s", pass.Name, pass.Description, ptx.DiffTable(before, after))
			},
		}
		pk, err := compiler.CompileWithConfig(k, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nper-pass summary\n")
		for _, st := range pk.PassStats {
			fmt.Fprintf(w, "  %s\n", st)
		}
		fmt.Fprintf(w, "remarks (%d total, deduplicated)\n", ptx.RemarkTotal(pk.Remarks))
		for _, r := range pk.Remarks {
			if r.Count > 1 {
				fmt.Fprintf(w, "  %s  (x%d)\n", r, r.Count)
			} else {
				fmt.Fprintf(w, "  %s\n", r)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
