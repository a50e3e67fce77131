// Command patternbench is the evidence run for the pattern DSL: for every
// benchmark with a pattern program (MxM, Reduce, Scan, St2D, Sobel) on
// every GPU it autotunes the rewrite-rule schedule space and records the
// autotuned winner's performance against the benchmark's default kernel
// source (the canonical lowering for MxM, Reduce and Scan, the
// hand-written kernel for St2D and Sobel). The output document,
// BENCH_pattern.json, holds per-cell ratios, per-device geometric means,
// and the per-device winning schedules — which differ across devices, the
// performance-portability effect the paper's Section V attributes to hand
// tuning. Bit-identical parity of the St2D and Sobel lowerings with their
// hand kernels is checked in-tree by bench.TestPatternParityBitIdentical.
//
// CI runs a reduced-scale profile gated with -maxratio (geomean slowdown
// ceiling per device); the committed BENCH_pattern.json is produced by the
// default profile with -requireflip, which additionally fails unless at
// least one benchmark's winning schedule differs across devices.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"

	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
	"gpucmp/internal/tune"
)

// Record is one (benchmark, device, toolchain) cell.
type Record struct {
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	Toolchain string `json:"toolchain"`
	Metric    string `json:"metric"`

	Hand      float64 `json:"hand"`      // the benchmark's default kernel source (empty Config.Pattern)
	Canonical float64 `json:"canonical"` // pattern kernel, canonical schedule
	Best      float64 `json:"best"`      // pattern kernel, autotuned winner
	Winner    string  `json:"winner"`    // winning schedule mangle

	// Ratio is the autotuned-vs-hand slowdown: >1 means the generated
	// kernel is slower than the default source, <1 faster, regardless of
	// whether the metric is a time or a rate.
	Ratio float64 `json:"ratio"`
}

// Summary aggregates the grid for the gates.
type Summary struct {
	Profile string `json:"profile"`

	// GeomeanRatio maps device name -> geometric-mean autotuned-vs-hand
	// slowdown over its cells (the -maxratio gate).
	GeomeanRatio map[string]float64 `json:"geomean_ratio"`

	// Winners maps benchmark -> device -> winning schedule mangle.
	Winners map[string]map[string]string `json:"winners"`

	// WinnerFlips lists benchmarks whose winning schedule differs across
	// devices — the rewrite rules changing the answer per device.
	WinnerFlips []string `json:"winner_flips"`
}

// Output is the BENCH_pattern.json document.
type Output struct {
	Summary Summary  `json:"summary"`
	Records []Record `json:"records"`
}

// toolchains lists the runtimes a device supports (the AMD part only
// speaks OpenCL).
func toolchains(dev *arch.Device) []string {
	if dev.Vendor == "NVIDIA" {
		return []string{"cuda", "opencl"}
	}
	return []string{"opencl"}
}

// measure runs one benchmark variant on a fresh driver and returns its raw
// metric. An empty mangle selects the benchmark's default kernel source.
func measure(spec bench.Spec, toolchain string, dev *arch.Device, scale int, mangle string) (float64, error) {
	d, err := bench.NewDriver(toolchain, dev)
	if err != nil {
		return 0, err
	}
	res, err := spec.Run(d, bench.Config{Scale: scale, Pattern: mangle})
	if err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	if !res.Correct {
		return 0, fmt.Errorf("output failed verification")
	}
	return res.Value, nil
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

func main() {
	scale := flag.Int("scale", 8, "problem-size divisor")
	workers := flag.Int("workers", 4, "concurrent schedule evaluations")
	out := flag.String("out", "BENCH_pattern.json", "output path ('-' for stdout)")
	only := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all pattern benchmarks)")
	maxRatio := flag.Float64("maxratio", 0, "fail if any device's geomean autotuned-vs-hand slowdown exceeds this (0 = off)")
	requireFlip := flag.Bool("requireflip", false, "fail unless some benchmark's winning schedule differs across devices")
	flag.Parse()

	want := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	devices := []*arch.Device{arch.GTX280(), arch.GTX480(), arch.HD5870()}

	var o Output
	o.Summary.Profile = fmt.Sprintf("scale=%d", *scale)
	o.Summary.GeomeanRatio = map[string]float64{}
	o.Summary.Winners = map[string]map[string]string{}
	ratios := map[string][]float64{} // device -> cell ratios

	for _, name := range bench.PatternBenchNames() {
		if len(want) > 0 && !want[name] {
			continue
		}
		spec, err := bench.SpecByName(name)
		if err != nil {
			log.Fatal(err)
		}
		o.Summary.Winners[name] = map[string]string{}
		for _, dev := range devices {
			for _, tc := range toolchains(dev) {
				// Sweep the schedule space and compare the winner against
				// the default kernel source on the paper's metric.
				rep, err := tune.TunePatternParallel(tc, dev, name, *scale, *workers)
				if err != nil {
					log.Fatalf("patternbench: %s/%s (%s): %v", name, dev.Name, tc, err)
				}
				best, ok := rep.Best()
				if !ok {
					log.Fatalf("patternbench: %s/%s (%s): no schedule ran OK", name, dev.Name, tc)
				}
				canonMangle, _ := bench.PatternCanonical(name)
				var canonical float64
				for _, p := range rep.Points {
					if p.Pattern == canonMangle && p.Status == "OK" {
						canonical = p.Raw
					}
				}
				hand, err := measure(spec, tc, dev, *scale, "")
				if err != nil {
					log.Fatalf("patternbench: %s/%s (%s): default-source run: %v", name, dev.Name, tc, err)
				}
				ratio := best.Raw / hand
				if !spec.LowerIsBetter {
					ratio = hand / best.Raw
				}

				o.Records = append(o.Records, Record{
					Benchmark: name, Device: dev.Name, Toolchain: tc, Metric: spec.Metric,
					Hand: hand, Canonical: canonical, Best: best.Raw, Winner: best.Pattern,
					Ratio: math.Round(ratio*1000) / 1000,
				})
				ratios[dev.Name] = append(ratios[dev.Name], ratio)
				if prev, seen := o.Summary.Winners[name][dev.Name]; !seen || prev == best.Pattern {
					o.Summary.Winners[name][dev.Name] = best.Pattern
				}
				fmt.Printf("%-7s %-15s %-7s hand %10.4g  tuned %10.4g %s  ratio %5.3f  winner %s\n",
					name, dev.Name, tc, hand, best.Raw, spec.Metric, ratio, best.Pattern)
			}
		}
	}
	if len(o.Records) == 0 {
		log.Fatal("patternbench: no cells completed")
	}

	for dev, rs := range ratios {
		o.Summary.GeomeanRatio[dev] = math.Round(geomean(rs)*1000) / 1000
	}
	for name, byDev := range o.Summary.Winners {
		distinct := map[string]bool{}
		for _, m := range byDev {
			distinct[m] = true
		}
		if len(distinct) > 1 {
			o.Summary.WinnerFlips = append(o.Summary.WinnerFlips, name)
		}
	}
	sort.Strings(o.Summary.WinnerFlips)

	fmt.Println()
	for _, dev := range devices {
		if g, ok := o.Summary.GeomeanRatio[dev.Name]; ok {
			fmt.Printf("%-15s geomean autotuned-vs-hand slowdown %.3fx\n", dev.Name, g)
		}
	}
	fmt.Printf("winner flips across devices: %v\n", o.Summary.WinnerFlips)

	data, err := json.MarshalIndent(&o, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}

	if *maxRatio > 0 {
		for dev, g := range o.Summary.GeomeanRatio {
			if g > *maxRatio {
				log.Fatalf("patternbench: %s geomean slowdown %.3fx above the %.2fx ceiling — generated kernels regressed",
					dev, g, *maxRatio)
			}
		}
	}
	if *requireFlip && len(o.Summary.WinnerFlips) == 0 {
		log.Fatal("patternbench: every device picked the same winning schedule for every benchmark — no rewrite rule changed an answer")
	}
}
