// Command simbench measures the simulator's own execution speed — not the
// modelled GPU performance, but how fast the host interprets kernels. Each
// paper benchmark runs per device under three interpreter profiles: the
// retained reference interpreter, and the production (threaded) engine
// both sequentially and with per-CU engine parallelism. Wall time,
// warp-instruction throughput, heap-allocation cost and the production
// engine's superinstruction hit rate are recorded per cell. The output is
// the evidence file for the interpreter-optimisation work: BENCH_sim.json
// (schema v3) carries per-cell numbers plus per-profile geometric means.
//
// CI runs a short profile (-scale 4 -reps 2) as a smoke gate with
// -minspeedup and -maxallocs thresholds; the committed BENCH_sim.json is
// produced by the default profile.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/sim"
)

// profile is one engine x parallelism configuration of the interpreter.
type profile struct {
	name     string
	engine   sim.Engine
	parallel bool
}

var allProfiles = []profile{
	{"reference", sim.EngineReference, false},
	{"threaded-seq", sim.EngineThreaded, false},
	{"threaded-par", sim.EngineThreaded, true},
}

// Record is one (benchmark, device, profile) cell.
type Record struct {
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	Profile   string `json:"profile"`  // e.g. "threaded-seq"
	Engine    string `json:"engine"`   // "reference" or "threaded"
	Parallel  bool   `json:"parallel"` // per-CU engine parallelism

	WallSeconds  float64 `json:"wall_seconds"` // best of -reps runs
	WarpInstrs   int64   `json:"warp_instrs"`  // per run
	MWIPerSec    float64 `json:"mwi_per_sec"`  // warp-instruction throughput
	AllocsPerRun uint64  `json:"allocs_per_run"`
	AllocsPerMWI float64 `json:"allocs_per_mwi"` // heap allocations per million warp-instrs

	// SuperinstrHitRate is the fraction of warp instructions retired inside
	// fused superinstruction segments (threaded profiles only).
	SuperinstrHitRate float64 `json:"superinstr_hit_rate,omitempty"`
	// SuperinstrOpsPerDispatch is the mean fused-segment length actually
	// executed (ops covered / fused dispatches; threaded profiles only).
	SuperinstrOpsPerDispatch float64 `json:"superinstr_ops_per_dispatch,omitempty"`
}

// Summary aggregates the grid per profile.
type Summary struct {
	Schema   int    `json:"schema"` // 3
	Profile  string `json:"profile"`
	HostCPUs int    `json:"host_cpus"`

	// GeomeanSpeedup is each profile's geometric-mean speedup over the
	// reference interpreter across all completed cells.
	GeomeanSpeedup map[string]float64 `json:"geomean_speedup"`
	// Speedups holds per-cell speedups over reference: profile -> cell.
	Speedups map[string]map[string]float64 `json:"speedups"`
	// AllocsGeo is each profile's geomean heap allocations per million
	// warp-instructions.
	AllocsGeo map[string]float64 `json:"allocs_per_mwi_geomean"`
	// SuperinstrHitRateMean is the plain mean fused coverage across cells,
	// per threaded profile.
	SuperinstrHitRateMean map[string]float64 `json:"superinstr_hit_rate_mean,omitempty"`
}

// Output is the BENCH_sim.json document (schema v3).
type Output struct {
	Summary Summary  `json:"summary"`
	Records []Record `json:"records"`
}

// measure executes one benchmark once on a fresh driver and returns the
// interpreter's wall time (sim.Device.ExecNanos — launches only, so the
// engines are compared without the identical host-side compile, staging
// and verification work), the warp-instruction count, the heap allocations
// of the run, and the device's superinstruction counters.
func measure(spec bench.Spec, dev *arch.Device, cfg bench.Config, p profile) (float64, int64, uint64, [3]int64, error) {
	var super [3]int64
	d, err := bench.Toolchains(dev)[0].Open(dev)
	if err != nil {
		return 0, 0, 0, super, err
	}
	sd := bench.SimDevice(d)
	if sd == nil {
		return 0, 0, 0, super, fmt.Errorf("driver exposes no simulated device")
	}
	sd.Engine = p.engine
	sd.Parallel = p.parallel
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := spec.Run(d, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, 0, super, err
	}
	if res.Err != nil {
		return 0, 0, 0, super, res.Err
	}
	var wi int64
	for _, tr := range res.Traces {
		wi += tr.Dyn.Total
	}
	super[0], super[1], super[2] = sd.DeviceEngineStats()
	return float64(sd.ExecNanos()) / 1e9, wi, after.Mallocs - before.Mallocs, super, nil
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// headline is the profile a bare -minspeedup / -maxallocs number gates.
const headline = "threaded-seq"

// gateSpec is a per-profile threshold flag: either a bare number applied
// to the headline profile, or a comma list of profile=value pairs.
type gateSpec map[string]float64

func parseGates(s string) (gateSpec, error) {
	g := gateSpec{}
	if s == "" || s == "0" {
		return g, nil
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		if v > 0 {
			g[headline] = v
		}
		return g, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad gate %q (want profile=value)", part)
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad gate %q: %v", part, err)
		}
		g[kv[0]] = v
	}
	return g, nil
}

// errUsage marks a command-line error, on which main exits 2; any other
// error, a failed gate among them, exits 1.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Printf("simbench: %v", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	scale := fs.Int("scale", 2, "problem-size divisor (1 = full size)")
	reps := fs.Int("reps", 3, "runs per cell; best wall time wins")
	out := fs.String("out", "BENCH_sim.json", "output path ('-' for stdout)")
	only := fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
	par := fs.String("engine-parallelism", "", "restrict parallelism: on or off (default: both)")
	minSpeedup := fs.String("minspeedup", "", "fail if a profile's geomean speedup over reference is below this; bare number gates threaded-seq, or profile=value,...")
	maxAllocs := fs.String("maxallocs", "", "fail if a profile's geomean allocs per million warp-instrs exceeds this; same syntax as -minspeedup")
	requirePar := fs.Bool("requirepar", false, "fail unless threaded-par beats threaded-seq (geomean wall time); skipped with a warning on a single-CPU host")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}

	profiles := []profile{allProfiles[0]} // reference is always the baseline
	for _, p := range allProfiles[1:] {
		if *par == "off" && p.parallel || *par == "on" && !p.parallel {
			continue
		}
		profiles = append(profiles, p)
	}
	minGate, err := parseGates(*minSpeedup)
	if err != nil {
		return fmt.Errorf("-minspeedup: %w", err)
	}
	maxGate, err := parseGates(*maxAllocs)
	if err != nil {
		return fmt.Errorf("-maxallocs: %w", err)
	}

	devices := []*arch.Device{arch.GTX280(), arch.GTX480(), arch.HD5870()}

	var o Output
	o.Summary.Schema = 3
	o.Summary.Profile = fmt.Sprintf("scale=%d reps=%d", *scale, *reps)
	o.Summary.HostCPUs = runtime.NumCPU()
	o.Summary.GeomeanSpeedup = map[string]float64{}
	o.Summary.Speedups = map[string]map[string]float64{}
	o.Summary.AllocsGeo = map[string]float64{}
	speedups := map[string][]float64{}
	allocRates := map[string][]float64{}
	hitRates := map[string][]float64{}

	for _, spec := range bench.Registry() {
		if len(want) > 0 && !want[spec.Name] {
			continue
		}
		for _, dev := range devices {
			cfg := bench.NativeConfig(bench.Toolchains(dev)[0].Name)
			cfg.Scale = *scale
			cells := map[string]Record{}
			ok := true
			for _, p := range profiles {
				best := math.Inf(1)
				var wi int64
				var allocs uint64
				var super [3]int64
				for r := 0; r < *reps; r++ {
					wall, w, a, su, err := measure(spec, dev, cfg, p)
					if err != nil {
						log.Printf("simbench: %s/%s (%s): %v — skipping cell",
							spec.Name, dev.Name, p.name, err)
						ok = false
						break
					}
					if wall < best {
						best, wi, allocs, super = wall, w, a, su
					}
				}
				if !ok {
					break
				}
				rec := Record{
					Benchmark:    spec.Name,
					Device:       dev.Name,
					Profile:      p.name,
					Engine:       p.engine.String(),
					Parallel:     p.parallel,
					WallSeconds:  best,
					WarpInstrs:   wi,
					MWIPerSec:    float64(wi) / best / 1e6,
					AllocsPerRun: allocs,
					AllocsPerMWI: float64(allocs) / (float64(wi) / 1e6),
				}
				if p.engine == sim.EngineThreaded && wi > 0 {
					// One run's counters: the driver (and so the device) is
					// fresh per run, so the best run's totals divide by one
					// run's warp instructions.
					rec.SuperinstrHitRate = float64(super[1]) / float64(wi)
					if super[0] > 0 {
						rec.SuperinstrOpsPerDispatch = float64(super[1]) / float64(super[0])
					}
					hitRates[p.name] = append(hitRates[p.name], rec.SuperinstrHitRate)
				}
				cells[p.name] = rec
			}
			if !ok {
				continue
			}
			ref := cells["reference"]
			key := spec.Name + "/" + dev.Name
			line := fmt.Sprintf("%-14s %-8s", spec.Name, dev.Name)
			for _, p := range profiles {
				rec := cells[p.name]
				o.Records = append(o.Records, rec)
				if p.name == "reference" {
					continue
				}
				sp := ref.WallSeconds / rec.WallSeconds
				if o.Summary.Speedups[p.name] == nil {
					o.Summary.Speedups[p.name] = map[string]float64{}
				}
				o.Summary.Speedups[p.name][key] = math.Round(sp*100) / 100
				speedups[p.name] = append(speedups[p.name], sp)
				allocRates[p.name] = append(allocRates[p.name], math.Max(rec.AllocsPerMWI, 1e-9))
				line += fmt.Sprintf("  %s %5.2fx", p.name, sp)
			}
			if t, ok := cells["threaded-seq"]; ok {
				line += fmt.Sprintf("  fuse %3.0f%%", t.SuperinstrHitRate*100)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	if len(speedups) == 0 {
		return errors.New("no cells completed")
	}
	o.Summary.SuperinstrHitRateMean = map[string]float64{}
	for name, xs := range speedups {
		o.Summary.GeomeanSpeedup[name] = math.Round(geomean(xs)*1000) / 1000
		o.Summary.AllocsGeo[name] = math.Round(geomean(allocRates[name])*10) / 10
	}
	for name, xs := range hitRates {
		o.Summary.SuperinstrHitRateMean[name] = math.Round(mean(xs)*1000) / 1000
	}

	fmt.Fprintln(stdout)
	for _, p := range profiles[1:] {
		n := len(speedups[p.name])
		fmt.Fprintf(stdout, "%-13s geomean speedup %6.3fx over %d cells; allocs/MWI geomean %.1f\n",
			p.name, o.Summary.GeomeanSpeedup[p.name], n, o.Summary.AllocsGeo[p.name])
	}

	data, err := json.MarshalIndent(&o, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		if _, err := stdout.Write(data); err != nil {
			return err
		}
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}

	failed := false
	for name, floor := range minGate {
		got, ok := o.Summary.GeomeanSpeedup[name]
		if !ok {
			log.Printf("simbench: -minspeedup names profile %q which did not run", name)
			failed = true
			continue
		}
		if got < floor {
			log.Printf("simbench: %s geomean speedup %.3fx below the %.2fx floor — interpreter performance regressed",
				name, got, floor)
			failed = true
		}
	}
	for name, ceil := range maxGate {
		got, ok := o.Summary.AllocsGeo[name]
		if !ok {
			log.Printf("simbench: -maxallocs names profile %q which did not run", name)
			failed = true
			continue
		}
		if got > ceil {
			log.Printf("simbench: %s allocations %.1f/MWI above the %.1f ceiling — arena recycling regressed",
				name, got, ceil)
			failed = true
		}
	}
	if *requirePar {
		seq, okS := o.Summary.GeomeanSpeedup["threaded-seq"]
		parG, okP := o.Summary.GeomeanSpeedup["threaded-par"]
		switch {
		case runtime.NumCPU() <= 1:
			log.Printf("simbench: -requirepar skipped: single-CPU host (engine parallelism cannot win)")
		case !okS || !okP:
			log.Printf("simbench: -requirepar needs both threaded-seq and threaded-par profiles")
			failed = true
		case parG <= seq:
			log.Printf("simbench: threaded-par (%.3fx) does not beat threaded-seq (%.3fx) on a %d-CPU host",
				parG, seq, runtime.NumCPU())
			failed = true
		}
	}
	if failed {
		return errors.New("a gate failed")
	}
	return nil
}
