package bench

import "gpucmp/internal/workload"

const reduceBlock = 256

// reduceData is Reduce's host side at one length.
type reduceData struct {
	in   []uint32 // the floats to sum, in words
	want float64  // their sum in float64
}

// reduceHost builds the input and its reference sum.
func reduceHost(n int) *reduceData {
	in := workload.NewRNG(13).Floats(n, 0, 1)
	h := &reduceData{in: F32Words(in)}
	for _, v := range in {
		h.want += float64(v)
	}
	return h
}

// runReduce measures reduction bandwidth in GB/sec (Table II). The kernel
// is the pattern lowering of a ReduceProg; the canonical schedule is the
// SHOC-style shared-memory tree reduction over 256-wide groups. The device
// produces per-group partials; the final partial sum happens on the host,
// as in SHOC.
func runReduce(d Driver, cfg Config) *Result {
	shape, _ := PatternShape("Reduce", cfg)
	n := shape.N
	h := hostData("Reduce", n, reduceHost)

	l, bufs, err := runLowered(d, "Reduce", cfg, map[string][]uint32{"in": h.in})
	if err != nil {
		return abort(d, err)
	}

	partials, err := readWords(d, bufs[l.Out], l.Buf(l.Out).Words)
	if err != nil {
		return abort(d, err)
	}
	var got float64
	for _, p := range partials {
		got += float64(bitsF32(p))
	}
	diff := got - h.want
	if diff < 0 {
		diff = -diff
	}
	correct := diff <= 1e-3*(1+h.want)
	return result(d, float64(n)*4, correct)
}
