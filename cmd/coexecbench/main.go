// Command coexecbench is the transfer-inclusive companion to benchall: the
// paper's Section IV compares devices by kernel time alone, and this tool
// reruns that comparison with host<->device transfers included ("Section
// IV'"), then measures what co-executing one launch across several devices
// buys — and what recovering from a device lost mid-run costs.
//
// Three result sections land in the JSON output:
//
//   - section_iv_prime: per-workload device rankings by compute-only and by
//     transfer-inclusive time, with the pairs whose order flips. The CPU's
//     host-resident buffers (no PCIe crossing) are what make flips happen
//     on transfer-bound workloads.
//   - coexec: 2- and 3-device co-execution makespans against the best
//     single device, with and without copy/compute overlap.
//   - recovery: the same splits with one device deterministically killed
//     mid-run; overhead is the extra simulated makespan paid for reclaiming
//     and redistributing the dead device's shards.
//
// Every co-execution merge is checked bit-identical to the single-device
// oracle before anything is written; a mismatch is a hard failure. This is
// the gate CI runs at reduced scale with -requireflip.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"sort"

	"gpucmp/internal/arch"
	"gpucmp/internal/coexec"
)

// baseSizes is the scale-1 problem size per workload; -scale divides it.
var baseSizes = map[string]int{"vecadd": 512, "sobel": 256, "mxm": 192}

// deviceRow is one device's entry in a Section IV' ranking.
type deviceRow struct {
	Device          string  `json:"device"`
	Toolchain       string  `json:"toolchain"`
	KernelSeconds   float64 `json:"kernel_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"` // h2d + d2h + setup copies
	TotalSeconds    float64 `json:"total_seconds"`    // overlapped span incl. setup
	RankCompute     int     `json:"rank_compute"`
	RankTotal       int     `json:"rank_total"`
}

// flip is one device pair whose order differs between the two rankings.
type flip struct {
	Faster string `json:"faster_compute_only"`  // wins on kernel time...
	Slower string `json:"faster_transfer_incl"` // ...but loses once copies count
}

type sectionIVPrime struct {
	Workload string      `json:"workload"`
	Size     int         `json:"size"`
	Devices  []deviceRow `json:"devices"`
	Flips    []flip      `json:"flips"`
}

type coexecResult struct {
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

type output struct {
	Tool     string           `json:"tool"`
	Scale    int              `json:"scale"`
	Sections []sectionIVPrime `json:"section_iv_prime"`
	Coexec   []coexecResult   `json:"coexec"`
	Recovery []recoveryResult `json:"recovery"`
}

func checksum(words []uint32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, w := range words {
		binary.LittleEndian.PutUint32(buf[:], w)
		h.Write(buf[:]) //nolint:errcheck // fnv never fails
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// singleRun co-executes on exactly one device: same accounting as the
// multi-device runs (setup + overlap), so the comparison is apples-to-apples.
func singleRun(w coexec.Workload, a *arch.Device) ([]uint32, *coexec.DeviceReport, error) {
	out, rep, err := coexec.Run(context.Background(), w, coexec.Options{
		Devices: []*arch.Device{a}, StragglerAfter: -1,
	})
	if err != nil {
		return nil, nil, err
	}
	return out, &rep.Devices[0], nil
}

func main() {
	scale := flag.Int("scale", 1, "problem-size divisor (1 = full size)")
	jsonPath := flag.String("json", "BENCH_coexec.json", "output path ('-' for stdout)")
	requireFlip := flag.Bool("requireflip", false, "exit non-zero unless at least one ranking flip is found")
	flag.Parse()
	if *scale < 1 {
		log.Fatal("coexecbench: -scale must be >= 1")
	}

	devices := []*arch.Device{
		arch.GTX480(), arch.GTX280(), arch.HD5870(), arch.Intel920(), arch.CellBE(),
	}
	out := output{Tool: "coexecbench", Scale: *scale}

	// ---- Section IV': compute-only vs transfer-inclusive rankings -------
	totalFlips := 0
	oracles := map[string][]uint32{} // workload -> reference words
	for _, name := range coexec.NamedWorkloads() {
		size := baseSizes[name] / *scale
		if size < 16 {
			size = 16
		}
		w, err := coexec.Named(name, size)
		if err != nil {
			log.Fatal(err)
		}
		sec := sectionIVPrime{Workload: name, Size: size}
		for _, a := range devices {
			words, dr, err := singleRun(w, a)
			if err != nil {
				log.Fatalf("coexecbench: %s on %s: %v", name, a.Name, err)
			}
			if ref, ok := oracles[name]; !ok {
				oracles[name] = words
			} else if checksum(ref) != checksum(words) {
				log.Fatalf("coexecbench: %s on %s: output differs from oracle — simulator determinism broken", name, a.Name)
			}
			sec.Devices = append(sec.Devices, deviceRow{
				Device:          a.Name,
				Toolchain:       dr.Toolchain,
				KernelSeconds:   dr.KernelSeconds,
				TransferSeconds: dr.H2DSeconds + dr.D2HSeconds + dr.SetupSeconds,
				TotalSeconds:    dr.SpanSeconds,
			})
		}
		rank := func(key func(deviceRow) float64, assign func(*deviceRow, int)) {
			idx := make([]int, len(sec.Devices))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				return key(sec.Devices[idx[a]]) < key(sec.Devices[idx[b]])
			})
			for r, i := range idx {
				assign(&sec.Devices[i], r+1)
			}
		}
		rank(func(d deviceRow) float64 { return d.KernelSeconds },
			func(d *deviceRow, r int) { d.RankCompute = r })
		rank(func(d deviceRow) float64 { return d.TotalSeconds },
			func(d *deviceRow, r int) { d.RankTotal = r })
		for i := range sec.Devices {
			for j := range sec.Devices {
				di, dj := sec.Devices[i], sec.Devices[j]
				if di.RankCompute < dj.RankCompute && di.RankTotal > dj.RankTotal {
					sec.Flips = append(sec.Flips, flip{Faster: di.Device, Slower: dj.Device})
				}
			}
		}
		totalFlips += len(sec.Flips)
		out.Sections = append(out.Sections, sec)
	}

	// ---- Co-execution speedup over the best single device ---------------
	splits := [][]*arch.Device{
		{arch.GTX480(), arch.GTX280()},
		{arch.GTX480(), arch.GTX280(), arch.Intel920()},
	}
	for _, name := range coexec.NamedWorkloads() {
		size := baseSizes[name] / *scale
		if size < 16 {
			size = 16
		}
		w, _ := coexec.Named(name, size)
		singleSpan := map[string]float64{}
		for _, sec := range out.Sections {
			if sec.Workload != name {
				continue
			}
			for _, dr := range sec.Devices {
				singleSpan[dr.Device] = dr.TotalSeconds
			}
		}
		for _, split := range splits {
			// Transfer-inclusive scheduling: the static shard split is
			// weighted by each device's end-to-end (copies included)
			// single-device speed, so the partitions finish together.
			weights := make([]float64, len(split))
			for i, a := range split {
				weights[i] = 1 / singleSpan[a.Name]
			}
			words, rep, err := coexec.Run(context.Background(), w, coexec.Options{
				Devices: split, Weights: weights, StragglerAfter: -1,
			})
			if err != nil {
				log.Fatalf("coexecbench: coexec %s: %v", name, err)
			}
			if checksum(words) != checksum(oracles[name]) {
				log.Fatalf("coexecbench: coexec %s on %d devices: merge differs from oracle", name, len(split))
			}
			res := coexecResult{
				Workload:         name,
				MakespanSeconds:  rep.MakespanSeconds,
				NoOverlapSeconds: rep.NoOverlapSeconds,
				OverlapGain:      rep.NoOverlapSeconds / rep.MakespanSeconds,
			}
			best := -1.0
			for _, a := range split {
				res.Devices = append(res.Devices, a.Name)
				if span := singleSpan[a.Name]; best < 0 || span < best {
					best, res.BestSingleDevice = span, a.Name
				}
			}
			res.BestSingleSecs = best
			res.Speedup = best / rep.MakespanSeconds
			out.Coexec = append(out.Coexec, res)
		}
	}

	// ---- Recovery overhead: lose a device mid-run ------------------------
	kill := map[string]int{"GeForce GTX280": 1}
	for _, name := range coexec.NamedWorkloads() {
		size := baseSizes[name] / *scale
		if size < 16 {
			size = 16
		}
		w, _ := coexec.Named(name, size)
		split := []*arch.Device{arch.GTX480(), arch.GTX280(), arch.Intel920()}
		weights := make([]float64, len(split))
		for _, sec := range out.Sections {
			if sec.Workload != name {
				continue
			}
			for i, a := range split {
				for _, dr := range sec.Devices {
					if dr.Device == a.Name {
						weights[i] = 1 / dr.TotalSeconds
					}
				}
			}
		}
		opts := coexec.Options{Devices: split, Weights: weights, ShardsPerDevice: 8, StragglerAfter: -1}
		cleanWords, cleanRep, err := coexec.Run(context.Background(), w, opts)
		if err != nil {
			log.Fatalf("coexecbench: clean %s: %v", name, err)
		}
		opts.Kill = kill
		killWords, killRep, err := coexec.Run(context.Background(), w, opts)
		if err != nil {
			log.Fatalf("coexecbench: kill %s: %v", name, err)
		}
		identical := checksum(cleanWords) == checksum(killWords) &&
			checksum(killWords) == checksum(oracles[name])
		if !identical {
			log.Fatalf("coexecbench: %s: mid-run device loss changed output bits", name)
		}
		if !killRep.Degraded || len(killRep.Lost) == 0 {
			log.Fatalf("coexecbench: %s: kill run not marked degraded: %+v", name, killRep)
		}
		rec := recoveryResult{
			Workload:            name,
			Kill:                kill,
			CleanSeconds:        cleanRep.MakespanSeconds,
			KillSeconds:         killRep.MakespanSeconds,
			OverheadRatio:       killRep.MakespanSeconds/cleanRep.MakespanSeconds - 1,
			Redistributions:     killRep.Redistributions,
			Lost:                killRep.Lost,
			BitIdenticalToClean: identical,
		}
		for _, a := range split {
			rec.Devices = append(rec.Devices, a.Name)
		}
		out.Recovery = append(out.Recovery, rec)
	}

	// ---- Report ----------------------------------------------------------
	for _, sec := range out.Sections {
		fmt.Printf("%s (size %d): %d ranking flips once transfers count\n",
			sec.Workload, sec.Size, len(sec.Flips))
		for _, f := range sec.Flips {
			fmt.Printf("  %s beats %s on kernel time, loses end-to-end\n", f.Faster, f.Slower)
		}
	}
	for _, c := range out.Coexec {
		fmt.Printf("%s on %d devices: %.2fx vs best single (%s), overlap gain %.2fx\n",
			c.Workload, len(c.Devices), c.Speedup, c.BestSingleDevice, c.OverlapGain)
	}
	for _, r := range out.Recovery {
		fmt.Printf("%s recovery: +%.1f%% makespan after losing %v mid-run (%d shards redistributed)\n",
			r.Workload, 100*r.OverheadRatio, r.Lost, r.Redistributions)
	}

	w := os.Stdout
	if *jsonPath != "-" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}

	if *requireFlip && totalFlips == 0 {
		log.Fatal("coexecbench: -requireflip: no ranking flip found — transfer parameters are not doing their job")
	}
}
