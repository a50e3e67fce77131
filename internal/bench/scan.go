package bench

import "gpucmp/internal/workload"

const scanBlock = 256

// runScan measures exclusive prefix-sum throughput in MElements/sec
// (Table II). The kernels are the pattern lowering of a ScanProg; the
// canonical schedule is the three-kernel multi-level scan (Blelloch scan
// per 256-element tile, a one-thread scan of the tile sums, a uniform add).
func runScan(d Driver, cfg Config) *Result {
	shape, _ := PatternShape("Scan", cfg)
	n := shape.N
	keys := workload.NewRNG(47).Keys(n, 1000)

	l, bufs, err := runLowered(d, "Scan", cfg, map[string][]uint32{"in": keys})
	if err != nil {
		return abort(d, err)
	}

	got, err := readWords(d, bufs[l.Out], n)
	if err != nil {
		return abort(d, err)
	}
	correct := true
	var acc uint32
	for i, k := range keys {
		if got[i] != acc {
			correct = false
			break
		}
		acc += k
	}
	return result(d, float64(n), correct)
}
