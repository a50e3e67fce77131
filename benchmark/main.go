// Command benchmark is the repository's one benchmark: four named workloads
// driven through the public functions of core/bench, fuzz, server+sched and
// cluster, scored with the end-to-end metrics BENCHMARK.json bounds, and a
// second, traced run that times the calls into each layer from this
// directory's own files. See README.md.
//
//	go run ./benchmark                          every workload, plain and traced
//	go run ./benchmark -workload serve-hot -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -write-golden            regenerate golden/paper-grid.json
//
// With -workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// smokeScale is the grid scale of the reduced-size smoke test; its golden
// outcomes are committed beside the measured scale's.
const smokeScale = 16

func newWorkload(name string, seconds int) (workload, error) {
	switch name {
	case "paper-grid":
		return newPaperGrid(gridScale, seconds), nil
	case "fuzz-oracle":
		return newFuzzOracle(seconds), nil
	case "serve-hot":
		return newServeHot(seconds), nil
	case "serve-cold":
		return newServeCold(seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	name := flag.String("workload", "", "run one workload and print its result as a last line of JSON (default: all four, plain and traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed section on the reference host")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace-<workload>.json")
	golden := flag.Bool("write-golden", false, "regenerate the golden outcomes with the reference engine and exit")
	goldenPath := flag.String("golden", filepath.Join("benchmark", "golden", "paper-grid.json"), "with -write-golden: the file to write")
	flag.Parse()

	var err error
	switch {
	case *golden:
		var blob []byte
		if blob, err = writeGolden(gridScale, smokeScale); err == nil {
			err = os.WriteFile(*goldenPath, blob, 0o644)
		}
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, *outDir)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// driverLine is the last line of a -workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload once, plain or traced, for the driver.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) error {
	w, err := newWorkload(name, seconds)
	if err != nil {
		return err
	}
	line := driverLine{Metrics: map[string]driverValue{}}
	var got map[string]metric
	decls := endToEnd
	if traced {
		res, err := runTraced(w, seed, outDir)
		if err != nil {
			return err
		}
		line.Attempted, line.Failed, got, decls = res.Attempted, res.Failed, res.Metrics, perLayer
	} else {
		res, err := runPlain(w, seed, setupRepeats)
		if err != nil {
			return err
		}
		line.Attempted, line.Failed, got = res.Attempted, res.Failed, res.Metrics
		fmt.Printf("%-12s set-ups %.3f s, rounds %.3f s, p999 %.3f ms, max %.3f ms\n",
			name, res.SetupSeconds, res.RoundSeconds, res.P999Ms, res.MaxMs)
	}
	if err := checkDeclared(got, decls); err != nil {
		return err
	}
	printMetrics(name, got, decls)
	for _, d := range decls {
		line.Metrics[d.Name] = driverValue{Value: got[d.Name].Value, Unit: d.Unit}
	}
	line.Correct = line.Failed == 0 && got["sim.execnanos_over_wall"].Value <= 1
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// checkDeclared refuses a metric the declarations do not list.
func checkDeclared(got map[string]metric, decls []metricDecl) error {
	declared := map[string]string{}
	for _, d := range decls {
		declared[d.Name] = d.Unit
	}
	for name, m := range got {
		if unit, ok := declared[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared in metrics.go", name, m.Unit)
		}
	}
	return nil
}

// printMetrics prints every declared metric by name with its unit.
func printMetrics(workload string, got map[string]metric, decls []metricDecl) {
	for _, d := range decls {
		m := got[d.Name]
		extra := ""
		if m.Count > 0 {
			extra = fmt.Sprintf("  n=%d", m.Count)
		}
		if m.Note != "" {
			extra += "  " + m.Note
		}
		fmt.Printf("%-12s %-30s %14.6g %-6s%s\n", workload, d.Name, m.Value, d.Unit, extra)
	}
}

// report is benchmark/out/results.json.
type report struct {
	Seed       int64           `json:"seed"`
	Seconds    int             `json:"seconds"`
	Commit     string          `json:"commit"`
	GoVersion  string          `json:"go_version"`
	CPUs       int             `json:"host_cpus"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Plain      []*plainResult  `json:"plain"`
	Traced     []*tracedResult `json:"traced"`
}

// runAll runs every workload, plain then traced, prints every metric, writes
// results.json and fails if any operation failed or the ExecNanos guard
// tripped.
func runAll(seed int64, seconds int, outDir string) error {
	rep := report{Seed: seed, Seconds: seconds, Commit: commit(), GoVersion: runtime.Version(),
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	fmt.Printf("seed %d  seconds %d  commit %s  %s  host.cpus %d  GOMAXPROCS %d\n",
		rep.Seed, rep.Seconds, rep.Commit, rep.GoVersion, rep.CPUs, rep.GOMAXPROCS)
	var problems []string
	for _, wl := range workloadWhy {
		w, err := newWorkload(wl.Name, seconds)
		if err != nil {
			return err
		}
		plain, err := runPlain(w, seed, setupRepeats)
		if err != nil {
			return err
		}
		rep.Plain = append(rep.Plain, plain)
		printMetrics(wl.Name, plain.Metrics, endToEnd)
		fmt.Printf("%-12s %-30s %14.4f %-6s  %d of %d failed or unverified\n", wl.Name, "failed_share",
			float64(plain.Failed)/float64(plain.Attempted), "ratio", plain.Failed, plain.Attempted)

		traced, err := runTraced(w, seed, outDir)
		if err != nil {
			return err
		}
		if err := checkDeclared(traced.Metrics, perLayer); err != nil {
			return err
		}
		rep.Traced = append(rep.Traced, traced)
		printMetrics(wl.Name, traced.Metrics, perLayer)
		if plain.Failed+traced.Failed > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d plain and %d traced operations failed", wl.Name, plain.Failed, traced.Failed))
		}
		if r := traced.Metrics["sim.execnanos_over_wall"].Value; r > 1 {
			problems = append(problems, fmt.Sprintf("%s: sim.execnanos_over_wall = %.3f > 1", wl.Name, r))
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// commit names the commit under test: the build's VCS stamp, else git's
// HEAD, else "unknown" (a checkout that is not a repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
