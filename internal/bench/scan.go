package bench

import (
	"slices"

	"gpucmp/internal/workload"
)

const scanBlock = 256

// scanData is Scan's host side at one length.
type scanData struct {
	keys []uint32
	want []uint32 // the exclusive prefix sums of keys
}

// scanHost builds the keys and their exclusive prefix sums.
func scanHost(n int) *scanData {
	h := &scanData{keys: workload.NewRNG(47).Keys(n, 1000), want: make([]uint32, n)}
	var acc uint32
	for i, k := range h.keys {
		h.want[i] = acc
		acc += k
	}
	return h
}

// runScan measures exclusive prefix-sum throughput in MElements/sec
// (Table II). The kernels are the pattern lowering of a ScanProg; the
// canonical schedule is the three-kernel multi-level scan (Blelloch scan
// per 256-element tile, a one-thread scan of the tile sums, a uniform add).
func runScan(d Driver, cfg Config) *Result {
	shape, _ := PatternShape("Scan", cfg)
	n := shape.N
	h := hostData("Scan", n, scanHost)

	l, bufs, err := runLowered(d, "Scan", cfg, map[string][]uint32{"in": h.keys})
	if err != nil {
		return abort(d, err)
	}

	got, err := readWords(d, bufs[l.Out], n)
	if err != nil {
		return abort(d, err)
	}
	return result(d, float64(n), slices.Equal(got, h.want))
}
