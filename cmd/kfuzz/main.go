// Command kfuzz runs the differential kernel fuzzer from the command
// line: seeded random KIR programs are executed on the reference
// interpreter and, compiled with both toolchain personalities, on every
// modelled device, and all outputs are compared bit-for-bit.
//
// Usage:
//
//	kfuzz -seed 1 -n 50             # seeds 1..50, all devices
//	kfuzz -seed 7 -n 1 -v           # one seed, print the kernel
//	kfuzz -device hd5870 -n 200     # one device by (substring) name
//	kfuzz -n 100000 -max-time 30s   # bounded CI smoke campaign
//	kfuzz -seed 3 -minimize         # shrink any failure before reporting
//	kfuzz -seed 3 -bisect           # name the compiler pass/feature at fault
//	kfuzz -seed 3 -dump corpus/     # write the program as corpus JSON
//
// Attack mode targets a running gpucmpd instead of the in-process oracle:
//
//	kfuzz -attack http://localhost:8080 -n 500
//
// generates programs, mutates a fraction into hostile submissions
// (malformed encodings, oversized shapes, unbounded loops, divergent
// barriers, watchdog bait, unknown devices) and POSTs them to /kernels,
// asserting every response is classified (ok / gauntlet-reject /
// watchdog / quota) and no request crashes or hangs the server.
//
// Exit status is 0 when every execution agreed with the reference (or,
// in attack mode, every response was classified) and nonzero otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/kir"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "first seed of the campaign")
		n        = flag.Int("n", 50, "number of seeds to run")
		device   = flag.String("device", "", "restrict to one device (case-insensitive substring of its name)")
		minimize = flag.Bool("minimize", false, "shrink failing kernels before reporting")
		bisect   = flag.Bool("bisect", false, "on divergence, disable compiler passes/features one at a time to name the culprit")
		maxTime  = flag.Duration("max-time", 0, "stop starting new seeds after this long (0 = no limit)")
		dump     = flag.String("dump", "", "write each generated program as JSON into this directory")
		verbose  = flag.Bool("v", false, "print each kernel before running it")

		attack  = flag.String("attack", "", "adversarial HTTP campaign against this gpucmpd base URL (e.g. http://localhost:8080)")
		tenants = flag.String("tenants", "attacker", "comma-separated tenant names rotated across attack requests")
		conc    = flag.Int("concurrency", 8, "parallel submitters in attack mode")
	)
	flag.Parse()

	if *attack != "" {
		runAttack(*attack, *seed, *n, *tenants, *conc, *verbose)
		return
	}

	devices, err := pickDevices(*device)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := fuzz.DefaultConfig()
	camp := &fuzz.Campaign{}
	start := time.Now()
	deadline := time.Time{}
	if *maxTime > 0 {
		deadline = start.Add(*maxTime)
	}

	failed := false
	ran := 0
	for s := *seed; s < *seed+uint64(*n); s++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Printf("time limit reached after %d seed(s)\n", ran)
			break
		}
		p := fuzz.Generate(s, cfg)
		if *verbose {
			fmt.Printf("seed %d:\n%s", s, kir.Format(p.Kernel))
		}
		if *dump != "" {
			if err := dumpProgram(*dump, p); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
		}
		res, err := fuzz.Check(p, devices)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", s, err)
			os.Exit(2)
		}
		ran++
		camp.Add(res)
		if res.Divergence != nil {
			failed = true
			report(p, res.Divergence, devices, *minimize, *bisect, *dump)
		}
	}

	// Throughput and the cores it was measured on: Check runs a program's
	// compiles and executions side by side, so one without the other says
	// nothing. CI copies this line into the job summary.
	elapsed := time.Since(start).Seconds()
	fmt.Printf("kfuzz: seeds %d..%d (%d run) in %.1fs, %.0f programs/s, GOMAXPROCS %d\n",
		*seed, *seed+uint64(*n)-1, ran, elapsed, float64(ran)/elapsed, runtime.GOMAXPROCS(0))
	fmt.Print(camp.Summary())
	if failed {
		os.Exit(1)
	}
}

// runAttack drives the adversarial HTTP campaign and exits with the
// campaign's verdict.
func runAttack(baseURL string, seed uint64, n int, tenants string, conc int, verbose bool) {
	opts := fuzz.AttackOptions{
		Tenants:     strings.Split(tenants, ","),
		Concurrency: conc,
	}
	if verbose {
		opts.Verbose = os.Stdout
	}
	start := time.Now()
	rep, err := fuzz.Attack(baseURL, seed, n, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("kfuzz -attack %s: %d request(s) in %.1fs\n", baseURL, rep.Requests, time.Since(start).Seconds())
	fmt.Print(rep.Summary())
	if rep.Failed() {
		os.Exit(1)
	}
}

func pickDevices(pattern string) ([]*arch.Device, error) {
	if pattern == "" {
		return arch.All(), nil
	}
	var out []*arch.Device
	for _, d := range arch.All() {
		if strings.Contains(strings.ToLower(d.Name), strings.ToLower(pattern)) {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("kfuzz: no device matches %q; known devices: %s",
			pattern, strings.Join(arch.Names(), ", "))
	}
	return out, nil
}

func report(p *fuzz.Program, d *fuzz.Divergence, devices []*arch.Device, minimize, bisect bool, dump string) {
	fmt.Printf("DIVERGENCE\n%s\n", d.Error())
	if bisect {
		rep, err := fuzz.BisectDivergence(p, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bisect: %v\n", err)
		} else {
			fmt.Print(rep)
		}
	}
	if !minimize {
		return
	}
	small := fuzz.Shrink(p, func(cand *fuzz.Program) bool {
		r, err := fuzz.Check(cand, devices)
		return err == nil && r.Divergence != nil
	})
	r, err := fuzz.Check(small, devices)
	if err != nil || r.Divergence == nil {
		fmt.Println("minimization lost the failure; reporting the original")
		return
	}
	fmt.Printf("MINIMIZED (%d nodes -> %d)\n%s\n",
		kir.CountNodes(p.Kernel.Body), kir.CountNodes(small.Kernel.Body), r.Divergence.Error())
	if dump != "" {
		if err := dumpProgram(dump, small); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}

func dumpProgram(dir string, p *fuzz.Program) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := fuzz.Encode(p)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.json", p.Kernel.Name))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
