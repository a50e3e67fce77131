package bench

import "gpucmp/internal/workload"

const reduceBlock = 256

// RunReduce measures reduction bandwidth in GB/sec (Table II). The kernel
// is the pattern lowering of a ReduceProg; the canonical schedule is the
// SHOC-style shared-memory tree reduction over 256-wide groups. The device
// produces per-group partials; the final partial sum happens on the host,
// as in SHOC.
func RunReduce(d Driver, cfg Config) (*Result, error) {
	const metric = "GB/sec"
	shape, _ := PatternShape("Reduce", cfg)
	n := shape.N
	in := workload.NewRNG(13).Floats(n, 0, 1)

	l, bufs, err := runLowered(d, "Reduce", cfg, map[string][]uint32{"in": F32Words(in)})
	if err != nil {
		return abort(d, "Reduce", metric, err), nil
	}
	kernelSecs := d.KernelTime()

	partials, err := readF32(d, bufs[l.Out], l.Buf(l.Out).Words)
	if err != nil {
		return abort(d, "Reduce", metric, err), nil
	}
	var got float64
	for _, p := range partials {
		got += float64(p)
	}
	var want float64
	for _, v := range in {
		want += float64(v)
	}
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	correct := diff <= 1e-3*(1+want)
	return result(d, "Reduce", metric, float64(n)*4/kernelSecs/1e9, correct), nil
}
