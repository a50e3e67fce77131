package core

// The repository's own studies, rows of the figure table after the
// paper's ten: the full measurement grid, the Section VI knob tuner, the
// pattern-schedule autotuning run and the transfer-inclusive co-execution
// sweep (Section IV′).

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/coexec"
	"gpucmp/internal/sched"
	"gpucmp/internal/stats"
	"gpucmp/internal/tune"
)

// gpus are the pattern study's devices: the three GPUs.
func gpus() []*arch.Device { return []*arch.Device{arch.GTX280(), arch.GTX480(), arch.HD5870()} }

// coexecDevices are the co-execution study's devices, fastest kernel
// first.
func coexecDevices() []*arch.Device {
	return []*arch.Device{arch.GTX480(), arch.GTX280(), arch.HD5870(), arch.Intel920(), arch.CellBE()}
}

// gridCell is one cell of the full measurement grid. TransferSec is the
// cell's simulated host<->device copy time and TotalSec the
// transfer-inclusive end-to-end time: the paper's kernel-only comparison
// plus what it leaves out.
type gridCell struct {
	Benchmark   string  `json:"benchmark"`
	Device      string  `json:"device"`
	Toolchain   string  `json:"toolchain"`
	Metric      string  `json:"metric"`
	Value       float64 `json:"value,omitempty"`
	KernelSec   float64 `json:"kernel_seconds,omitempty"`
	TransferSec float64 `json:"transfer_seconds,omitempty"`
	TotalSec    float64 `json:"total_seconds,omitempty"`
	Status      string  `json:"status"`
	Error       string  `json:"error,omitempty"`
}

// gridStudy runs the cells sched.GridJobs lists, in its order, on the
// devices asked for: every benchmark with every toolchain a device
// supports, the union of the data behind Fig. 3 and Table VI.
func gridStudy(g regen) ([]gridCell, error) {
	var cells []gridCell
	for _, j := range sched.GridJobs(g.scale) {
		i := slices.IndexFunc(g.devices, func(a *arch.Device) bool { return a.Name == j.Device })
		if i < 0 {
			continue
		}
		spec, err := bench.SpecByName(j.Benchmark)
		if err != nil {
			return nil, err
		}
		res, err := g.run(g.devices[i], j.Toolchain, spec, j.Config)
		if err != nil {
			return nil, err
		}
		c := gridCell{Benchmark: j.Benchmark, Device: j.Device, Toolchain: j.Toolchain,
			Metric: spec.Metric, Status: res.Status()}
		if res.Err != nil {
			c.Error = res.Err.Error()
		} else {
			c.Value, c.KernelSec, c.TransferSec = res.Value, res.KernelSeconds, res.TransferSeconds
			c.TotalSec = res.KernelSeconds + res.TransferSeconds
		}
		cells = append(cells, c)
	}
	return cells, nil
}

func printGrid(w io.Writer, cells []gridCell, g regen) error {
	t := stats.NewTable(fmt.Sprintf("full grid at scale %d (%d cells), transfer-inclusive", g.scale, len(cells)),
		"benchmark", "device", "toolchain", "value", "metric", "kernel_s", "transfer_s", "total_s", "status")
	for _, c := range cells {
		val := "-"
		if c.Status == "OK" {
			val = fmt.Sprintf("%.4g", c.Value)
		}
		t.Add(c.Benchmark, c.Device, c.Toolchain, val, c.Metric,
			fmt.Sprintf("%.3g", c.KernelSec), fmt.Sprintf("%.3g", c.TransferSec),
			fmt.Sprintf("%.3g", c.TotalSec), c.Status)
	}
	return writeTable(w, t)
}

// tuneStudy is the auto-tuner the paper's Section VI proposes: every
// benchmark with step-4 knobs swept on every device, under each toolchain
// the device runs.
func tuneStudy(g regen) ([]*tune.Report, error) {
	var reps []*tune.Report
	for _, spec := range bench.Registry() {
		if tune.RelevantKnobs(spec.Name) == nil {
			continue
		}
		for _, a := range g.devices {
			for _, tc := range bench.Toolchains(a) {
				rep, err := tune.Tune(g.run, tc.Name, a, spec.Name, g.scale)
				if err != nil {
					return nil, err
				}
				reps = append(reps, rep)
			}
		}
	}
	return reps, nil
}

func printTune(w io.Writer, reps []*tune.Report, _ regen) error {
	for _, rep := range reps {
		t := stats.NewTable(
			fmt.Sprintf("%s on %s (%s, metric %s)", rep.Benchmark, rep.Device, rep.Toolchain, rep.Metric),
			"variant", "metric", "status")
		for _, p := range rep.Points {
			val := "-"
			if p.Status == "OK" {
				val = fmt.Sprintf("%.4g", p.Raw)
			}
			t.Add(p.Label(), val, p.Status)
		}
		fmt.Fprintln(w, t)
		if best, ok := rep.Best(); ok {
			fmt.Fprintf(w, "  winner: %s\n\n", best.Label())
		} else {
			fmt.Fprint(w, "  no runnable variant on this device\n\n")
		}
	}
	return nil
}

// patternCell is one (benchmark, device, toolchain) cell of the pattern
// study.
type patternCell struct {
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	Toolchain string `json:"toolchain"`
	Metric    string `json:"metric"`

	Hand      float64 `json:"hand"`      // the benchmark's default kernel source (empty Config.Pattern)
	Canonical float64 `json:"canonical"` // pattern kernel, canonical schedule
	Best      float64 `json:"best"`      // pattern kernel, autotuned winner
	Winner    string  `json:"winner"`    // winning schedule mangle

	// Ratio is the autotuned-vs-hand slowdown: >1 means the generated
	// kernel is slower than the default source, <1 faster, whether the
	// metric is a time or a rate.
	Ratio float64 `json:"ratio"`
}

// patternSummary aggregates the pattern study's cells.
type patternSummary struct {
	// GeomeanRatio maps device name to the geometric-mean
	// autotuned-vs-hand slowdown over its cells.
	GeomeanRatio map[string]float64 `json:"geomean_ratio"`
	// Winners maps benchmark to device to winning schedule mangle (the
	// first toolchain's winner where a device runs two).
	Winners map[string]map[string]string `json:"winners"`
	// WinnerFlips lists the benchmarks whose winning schedule differs
	// across devices: the rewrite rules changing the answer per device.
	WinnerFlips []string `json:"winner_flips"`
}

type patternResult struct {
	Summary patternSummary `json:"summary"`
	Records []patternCell  `json:"records"`
}

// patternStudy is the evidence run for the pattern DSL (after Steuwer et
// al., arXiv:1502.02389): for every benchmark with a pattern program on
// every device and toolchain it autotunes the rewrite-rule schedule space
// and sets the winner against the benchmark's default kernel source (the
// canonical lowering for MxM, Reduce and Scan, the hand-written kernel
// for St2D and Sobel).
func patternStudy(g regen) (patternResult, error) {
	o := patternResult{Summary: patternSummary{
		GeomeanRatio: map[string]float64{},
		Winners:      map[string]map[string]string{},
	}}
	ratios := map[string][]float64{} // device -> cell ratios
	for _, name := range bench.PatternBenchNames() {
		spec, err := bench.SpecByName(name)
		if err != nil {
			return o, err
		}
		canonMangle, _ := bench.PatternCanonical(name)
		winners := map[string]string{}
		for _, a := range g.devices {
			for _, tc := range bench.Toolchains(a) {
				rep, err := tune.TunePattern(g.run, tc.Name, a, name, g.scale)
				if err != nil {
					return o, err
				}
				best, ok := rep.Best()
				if !ok {
					return o, fmt.Errorf("%s on %s (%s): no schedule ran OK", name, a.Name, tc.Name)
				}
				var canonical float64
				for _, p := range rep.Points {
					if p.Pattern == canonMangle && p.Status == "OK" {
						canonical = p.Raw
					}
				}
				res, err := g.run(a, tc.Name, spec, bench.Config{Scale: g.scale})
				switch {
				case err != nil:
				case res.Err != nil:
					err = res.Err
				case !res.Correct:
					err = errors.New("output failed verification")
				}
				if err != nil {
					return o, fmt.Errorf("%s on %s (%s): default-source run: %w", name, a.Name, tc.Name, err)
				}
				hand := res.Value
				ratio := best.Raw / hand
				if !bench.LowerIsBetter(spec.Metric) {
					ratio = hand / best.Raw
				}
				o.Records = append(o.Records, patternCell{
					Benchmark: name, Device: a.Name, Toolchain: tc.Name, Metric: spec.Metric,
					Hand: hand, Canonical: canonical, Best: best.Raw, Winner: best.Pattern,
					Ratio: round3(ratio),
				})
				ratios[a.Name] = append(ratios[a.Name], ratio)
				if _, seen := winners[a.Name]; !seen {
					winners[a.Name] = best.Pattern
				}
			}
		}
		o.Summary.Winners[name] = winners
		distinct := map[string]bool{}
		for _, m := range winners {
			distinct[m] = true
		}
		if len(distinct) > 1 {
			o.Summary.WinnerFlips = append(o.Summary.WinnerFlips, name)
		}
	}
	slices.Sort(o.Summary.WinnerFlips)
	for dev, rs := range ratios {
		o.Summary.GeomeanRatio[dev] = round3(stats.GeoMean(rs))
	}
	return o, nil
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

func printPattern(w io.Writer, o patternResult, g regen) error {
	t := stats.NewTable("autotuned pattern schedules against each benchmark's default kernel source",
		"benchmark", "device", "toolchain", "metric", "hand", "canonical", "tuned", "ratio", "winner")
	for _, r := range o.Records {
		t.Add(r.Benchmark, r.Device, r.Toolchain, r.Metric,
			fmt.Sprintf("%.4g", r.Hand), fmt.Sprintf("%.4g", r.Canonical), fmt.Sprintf("%.4g", r.Best),
			fmt.Sprintf("%.3f", r.Ratio), r.Winner)
	}
	fmt.Fprintln(w, t)
	gt := stats.NewTable("geomean autotuned-vs-hand slowdown (<1: the tuned kernel is faster)", "device", "geomean")
	for _, a := range g.devices {
		if r, ok := o.Summary.GeomeanRatio[a.Name]; ok {
			gt.Add(a.Name, fmt.Sprintf("%.3fx", r))
		}
	}
	fmt.Fprintln(w, gt)
	_, err := fmt.Fprintf(w, "winner flips across devices: %s\n", strings.Join(o.Summary.WinnerFlips, ", "))
	return err
}

// coexecBaseSizes is each co-execution workload's problem size at scale
// 1; the scale divides it, down to 16.
var coexecBaseSizes = map[string]int{"vecadd": 512, "sobel": 256, "mxm": 192}

// deviceRow is one device's entry in a Section IV′ ranking.
type deviceRow struct {
	Device          string  `json:"device"`
	Toolchain       string  `json:"toolchain"`
	KernelSeconds   float64 `json:"kernel_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"` // h2d + d2h + setup copies
	TotalSeconds    float64 `json:"total_seconds"`    // overlapped span incl. setup
	RankCompute     int     `json:"rank_compute"`
	RankTotal       int     `json:"rank_total"`
}

// rankFlip is one device pair whose order differs between the two
// rankings.
type rankFlip struct {
	Faster string `json:"faster_compute_only"`  // wins on kernel time...
	Slower string `json:"faster_transfer_incl"` // ...but loses once copies count
}

type rankingResult struct {
	Workload string      `json:"workload"`
	Size     int         `json:"size"`
	Devices  []deviceRow `json:"devices"`
	Flips    []rankFlip  `json:"flips"`
}

type splitResult struct {
	Workload         string   `json:"workload"`
	Devices          []string `json:"devices"`
	MakespanSeconds  float64  `json:"makespan_seconds"`
	NoOverlapSeconds float64  `json:"no_overlap_seconds"`
	BestSingleDevice string   `json:"best_single_device"`
	BestSingleSecs   float64  `json:"best_single_seconds"`
	Speedup          float64  `json:"speedup"`      // best single / coexec makespan
	OverlapGain      float64  `json:"overlap_gain"` // no-overlap / makespan
}

type recoveryResult struct {
	Workload            string         `json:"workload"`
	Devices             []string       `json:"devices"`
	Kill                map[string]int `json:"kill"`
	CleanSeconds        float64        `json:"clean_makespan_seconds"`
	KillSeconds         float64        `json:"kill_makespan_seconds"`
	OverheadRatio       float64        `json:"overhead_ratio"` // kill/clean - 1
	Redistributions     int            `json:"redistributions"`
	Lost                []string       `json:"lost"`
	BitIdenticalToClean bool           `json:"bit_identical_to_clean"`
}

// coexecResult is the co-execution study's three sections.
type coexecResult struct {
	Rankings []rankingResult  `json:"section_iv_prime"`
	Splits   []splitResult    `json:"coexec"`
	Recovery []recoveryResult `json:"recovery"`
}

var (
	// coexecSplits are the device sets one launch is split across.
	coexecSplits = [][]string{
		{"GeForce GTX480", "GeForce GTX280"},
		{"GeForce GTX480", "GeForce GTX280", "Intel Core i7 920"},
	}
	// coexecKill loses the GTX280 after its first completed shard.
	coexecKill = map[string]int{"GeForce GTX280": 1}
)

// coexecStudy is Section IV′ and co-execution. Section IV′ ranks the
// devices by kernel time, as the paper does, and by transfer-inclusive
// time. The splits then co-execute one launch across several devices,
// weighted by each one's transfer-inclusive speed, against the best
// single device. Recovery reruns the three-device split with the GTX280
// lost mid-run. A split or recovery runs only when every device it
// names is asked for. It runs outside the cell runner: a co-execution is
// not a benchmark cell. Every output must be bit-identical to the first
// device's: a mismatch is an error, never data.
func coexecStudy(g regen) (coexecResult, error) {
	var o coexecResult
	if g.scale < 1 {
		return o, fmt.Errorf("scale %d: want >= 1", g.scale)
	}
	for _, name := range coexec.NamedWorkloads() {
		size := max(coexecBaseSizes[name]/g.scale, 16)
		w, err := coexec.Named(name, size)
		if err != nil {
			return o, err
		}
		rk, oracle, err := rankDevices(w, name, size, g.devices)
		if err != nil {
			return o, err
		}
		o.Rankings = append(o.Rankings, rk)
		span := map[string]float64{}
		for _, d := range rk.Devices {
			span[d.Device] = d.TotalSeconds
		}
		for _, names := range coexecSplits {
			split, weights, ok := splitOf(names, g.devices, span)
			if !ok {
				continue
			}
			words, rep, err := coexec.Run(context.Background(), w, coexec.Options{
				Devices: split, Weights: weights,
			})
			if err != nil {
				return o, fmt.Errorf("%s on %d devices: %w", name, len(split), err)
			}
			if !slices.Equal(words, oracle) {
				return o, fmt.Errorf("%s on %d devices: merge differs from the oracle", name, len(split))
			}
			r := splitResult{Workload: name, Devices: names,
				MakespanSeconds: rep.MakespanSeconds, NoOverlapSeconds: rep.NoOverlapSeconds,
				OverlapGain: rep.NoOverlapSeconds / rep.MakespanSeconds, BestSingleSecs: -1}
			for _, n := range names {
				if s := span[n]; r.BestSingleSecs < 0 || s < r.BestSingleSecs {
					r.BestSingleSecs, r.BestSingleDevice = s, n
				}
			}
			r.Speedup = r.BestSingleSecs / rep.MakespanSeconds
			o.Splits = append(o.Splits, r)
		}
		names := coexecSplits[len(coexecSplits)-1]
		split, weights, ok := splitOf(names, g.devices, span)
		if !ok {
			continue
		}
		rec, err := loseDevice(w, name, split, weights, oracle)
		if err != nil {
			return o, err
		}
		rec.Devices = names
		o.Recovery = append(o.Recovery, rec)
	}
	return o, nil
}

// rankDevices runs w on each device alone, with the same accounting as a
// split (setup and overlap), and ranks the devices both ways. It returns
// the first device's output as the oracle.
func rankDevices(w coexec.Workload, name string, size int, devices []*arch.Device) (rankingResult, []uint32, error) {
	rk := rankingResult{Workload: name, Size: size}
	var oracle []uint32
	for _, a := range devices {
		words, rep, err := coexec.Run(context.Background(), w, coexec.Options{
			Devices: []*arch.Device{a},
		})
		if err != nil {
			return rk, nil, fmt.Errorf("%s on %s: %w", name, a.Name, err)
		}
		if oracle == nil {
			oracle = words
		} else if !slices.Equal(words, oracle) {
			return rk, nil, fmt.Errorf("%s on %s: output differs from %s's", name, a.Name, devices[0].Name)
		}
		dr := rep.Devices[0]
		rk.Devices = append(rk.Devices, deviceRow{
			Device: a.Name, Toolchain: dr.Toolchain, KernelSeconds: dr.KernelSeconds,
			TransferSeconds: dr.H2DSeconds + dr.D2HSeconds + dr.SetupSeconds,
			TotalSeconds:    dr.SpanSeconds,
		})
	}
	rank := func(key func(deviceRow) float64, set func(*deviceRow, int)) {
		order := make([]int, len(rk.Devices))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(i, j int) int {
			return cmp.Compare(key(rk.Devices[i]), key(rk.Devices[j]))
		})
		for r, i := range order {
			set(&rk.Devices[i], r+1)
		}
	}
	rank(func(d deviceRow) float64 { return d.KernelSeconds }, func(d *deviceRow, r int) { d.RankCompute = r })
	rank(func(d deviceRow) float64 { return d.TotalSeconds }, func(d *deviceRow, r int) { d.RankTotal = r })
	for _, di := range rk.Devices {
		for _, dj := range rk.Devices {
			if di.RankCompute < dj.RankCompute && di.RankTotal > dj.RankTotal {
				rk.Flips = append(rk.Flips, rankFlip{Faster: di.Device, Slower: dj.Device})
			}
		}
	}
	return rk, oracle, nil
}

// splitOf resolves a split's device names among the devices asked for,
// weighting each by its transfer-inclusive single-device speed so the
// partitions finish together. It reports false when a device is missing.
func splitOf(names []string, devices []*arch.Device, span map[string]float64) ([]*arch.Device, []float64, bool) {
	split := make([]*arch.Device, len(names))
	weights := make([]float64, len(names))
	for i, n := range names {
		j := slices.IndexFunc(devices, func(a *arch.Device) bool { return a.Name == n })
		if j < 0 {
			return nil, nil, false
		}
		split[i], weights[i] = devices[j], 1/span[n]
	}
	return split, weights, true
}

// loseDevice runs the split clean and with coexecKill, and checks that the
// kill run is marked degraded and merges to the clean run's and the
// oracle's bits.
func loseDevice(w coexec.Workload, name string, split []*arch.Device, weights []float64, oracle []uint32) (recoveryResult, error) {
	opts := coexec.Options{Devices: split, Weights: weights, ShardsPerDevice: 8}
	cleanWords, clean, err := coexec.Run(context.Background(), w, opts)
	if err != nil {
		return recoveryResult{}, fmt.Errorf("%s clean run: %w", name, err)
	}
	opts.Kill = coexecKill
	killWords, kill, err := coexec.Run(context.Background(), w, opts)
	if err != nil {
		return recoveryResult{}, fmt.Errorf("%s kill run: %w", name, err)
	}
	if !slices.Equal(cleanWords, killWords) || !slices.Equal(killWords, oracle) {
		return recoveryResult{}, fmt.Errorf("%s: losing a device mid-run changed the output bits", name)
	}
	if !kill.Degraded || len(kill.Lost) == 0 {
		return recoveryResult{}, fmt.Errorf("%s: kill run not marked degraded: %+v", name, kill)
	}
	return recoveryResult{
		Workload: name, Kill: coexecKill,
		CleanSeconds: clean.MakespanSeconds, KillSeconds: kill.MakespanSeconds,
		OverheadRatio:   kill.MakespanSeconds/clean.MakespanSeconds - 1,
		Redistributions: kill.Redistributions, Lost: kill.Lost,
		BitIdenticalToClean: true,
	}, nil
}

func printCoexec(w io.Writer, o coexecResult, _ regen) error {
	for _, rk := range o.Rankings {
		t := stats.NewTable(fmt.Sprintf("Section IV′ — %s (size %d): compute-only vs transfer-inclusive ranking", rk.Workload, rk.Size),
			"device", "toolchain", "kernel (ms)", "rank", "transfer (ms)", "end-to-end (ms)", "rank")
		for _, d := range rk.Devices {
			t.Add(d.Device, d.Toolchain, fmt.Sprintf("%.3f", d.KernelSeconds*1e3), d.RankCompute,
				fmt.Sprintf("%.3f", d.TransferSeconds*1e3), fmt.Sprintf("%.3f", d.TotalSeconds*1e3), d.RankTotal)
		}
		fmt.Fprintln(w, t)
		fmt.Fprintf(w, "%d ranking flips once transfers count\n", len(rk.Flips))
		for _, f := range rk.Flips {
			fmt.Fprintf(w, "  %s beats %s on kernel time, loses end-to-end\n", f.Faster, f.Slower)
		}
		fmt.Fprintln(w)
	}
	st := stats.NewTable("co-execution against the best single device, transfer-inclusive weights",
		"workload", "devices", "makespan (ms)", "best single", "speedup", "overlap gain")
	for _, s := range o.Splits {
		st.Add(s.Workload, len(s.Devices), fmt.Sprintf("%.3f", s.MakespanSeconds*1e3), s.BestSingleDevice,
			fmt.Sprintf("%.2fx", s.Speedup), fmt.Sprintf("%.2fx", s.OverlapGain))
	}
	fmt.Fprintln(w, st)
	rt := stats.NewTable("recovery: the three-device split losing a device mid-run (output bit-identical)",
		"workload", "lost", "redistributed", "clean (ms)", "kill (ms)", "overhead")
	for _, r := range o.Recovery {
		rt.Add(r.Workload, strings.Join(r.Lost, ", "), r.Redistributions,
			fmt.Sprintf("%.3f", r.CleanSeconds*1e3), fmt.Sprintf("%.3f", r.KillSeconds*1e3),
			fmt.Sprintf("+%.1f%%", 100*r.OverheadRatio))
	}
	return writeTable(w, rt)
}
