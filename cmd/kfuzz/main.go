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
//	kfuzz -attack http://localhost:8480 -n 500
//
// generates programs, mutates a fraction into hostile submissions
// (malformed encodings, oversized shapes, unbounded loops, divergent
// barriers, watchdog bait, unknown devices) and POSTs them to /kernels,
// asserting every response is classified (ok / gauntlet-reject /
// watchdog / quota) and no request crashes or hangs the server.
//
// Exit status is 0 when every execution agreed with the reference (or,
// in attack mode, every response was classified), 1 when one did not, and
// 2 on any other error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/kir"
)

// errFailed is a campaign's verdict: a program diverged or, in attack
// mode, a response came back unclassified. main exits 1 on it and 2 on
// any other error.
var errFailed = errors.New("kfuzz: campaign failed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errFailed) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfuzz", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 1, "first seed of the campaign")
		n        = fs.Int("n", 50, "number of seeds to run")
		device   = fs.String("device", "", "restrict to one device (case-insensitive substring of its name)")
		minimize = fs.Bool("minimize", false, "shrink failing kernels before reporting")
		bisect   = fs.Bool("bisect", false, "on divergence, disable compiler passes/features one at a time to name the culprit")
		maxTime  = fs.Duration("max-time", 0, "stop starting new seeds after this long (0 = no limit)")
		dump     = fs.String("dump", "", "write each generated program as JSON into this directory")
		verbose  = fs.Bool("v", false, "print each kernel before running it")

		attack  = fs.String("attack", "", "adversarial HTTP campaign against this gpucmpd base URL (e.g. http://localhost:8480)")
		tenants = fs.String("tenants", "attacker", "comma-separated tenant names rotated across attack requests")
		conc    = fs.Int("concurrency", 8, "parallel submitters in attack mode")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *attack != "" {
		return runAttack(w, *attack, *seed, *n, *tenants, *conc, *verbose)
	}

	devices, err := pickDevices(*device)
	if err != nil {
		return err
	}

	cfg := fuzz.DefaultConfig()
	camp := &fuzz.Campaign{}
	start := time.Now()
	deadline := time.Time{}
	if *maxTime > 0 {
		deadline = start.Add(*maxTime)
	}

	diverged := 0
	ran := 0
	for s := *seed; s < *seed+uint64(*n); s++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Fprintf(w, "time limit reached after %d seed(s)\n", ran)
			break
		}
		p := fuzz.Generate(s, cfg)
		if *verbose {
			fmt.Fprintf(w, "seed %d:\n%s", s, kir.Format(p.Kernel))
		}
		if *dump != "" {
			if err := dumpProgram(*dump, p); err != nil {
				return err
			}
		}
		res, err := fuzz.Check(p, devices)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		ran++
		camp.Add(res)
		if res.Divergence != nil {
			diverged++
			report(w, p, res.Divergence, devices, *minimize, *bisect, *dump)
		}
	}

	// Throughput and the cores it was measured on: Check runs a program's
	// compiles and executions side by side, so one without the other says
	// nothing. CI copies this line into the job summary.
	elapsed := time.Since(start).Seconds()
	fmt.Fprintf(w, "kfuzz: seeds %d..%d (%d run) in %.1fs, %.0f programs/s, GOMAXPROCS %d\n",
		*seed, *seed+uint64(*n)-1, ran, elapsed, float64(ran)/elapsed, runtime.GOMAXPROCS(0))
	fmt.Fprint(w, camp.Summary())
	if diverged > 0 {
		return fmt.Errorf("%w: %d of %d programs diverged", errFailed, diverged, ran)
	}
	return nil
}

// runAttack drives the adversarial HTTP campaign and returns its verdict.
func runAttack(w io.Writer, baseURL string, seed uint64, n int, tenants string, conc int, verbose bool) error {
	opts := fuzz.AttackOptions{
		Tenants:     strings.Split(tenants, ","),
		Concurrency: conc,
	}
	if verbose {
		opts.Verbose = w
	}
	start := time.Now()
	rep, err := fuzz.Attack(baseURL, seed, n, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "kfuzz -attack %s: %d request(s) in %.1fs\n", baseURL, rep.Requests, time.Since(start).Seconds())
	fmt.Fprint(w, rep.Summary())
	if rep.Failed() {
		return fmt.Errorf("%w: %d response(s) unclassified", errFailed, len(rep.Unclassified))
	}
	return nil
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

func report(w io.Writer, p *fuzz.Program, d *fuzz.Divergence, devices []*arch.Device, minimize, bisect bool, dump string) {
	fmt.Fprintf(w, "DIVERGENCE\n%s\n", d.Error())
	if bisect {
		rep, err := fuzz.BisectDivergence(p, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bisect: %v\n", err)
		} else {
			fmt.Fprint(w, rep)
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
		fmt.Fprintln(w, "minimization lost the failure; reporting the original")
		return
	}
	fmt.Fprintf(w, "MINIMIZED (%d nodes -> %d)\n%s\n",
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
