package bench

import (
	"gpucmp/internal/arch"
	"gpucmp/internal/perfmodel"
)

// Price re-prices a finished run under a toolchain's costs on a device: it
// returns a copy whose KernelSeconds and Value are the run's traces priced
// as Spec.Run prices them, and whose Toolchain names tc. Price models
// launches only, so the copy's EndToEndSeconds and TransferSeconds, which
// hold the host time of the stack that ran, are zero. An aborted run has
// nothing to price and is returned as it is.
func (s Spec) Price(res *Result, a *arch.Device, tc Toolchain) *Result {
	if res.Err != nil {
		return res
	}
	out := *res
	out.Toolchain = tc.Name
	out.EndToEndSeconds, out.TransferSeconds = 0, 0
	out.KernelSeconds, out.Value = s.price(res, a, tc)
	return &out
}

// price is the one place seconds become numbers. kernel is the modelled
// time of every launch, summed in launch order. value is the benchmark's
// metric of those seconds (the event-timer seconds, which exclude launch
// overhead, for the benchmarks whose Spec reads that clock): the seconds
// for a time-valued metric, Work per second in the metric's unit
// otherwise.
func (s Spec) price(res *Result, a *arch.Device, tc Toolchain) (kernel, value float64) {
	var event float64
	for _, tr := range res.Traces {
		b := perfmodel.KernelTime(a, tc.Costs, tr)
		kernel += b.Total
		event += b.Total - b.Launch
	}
	secs := kernel
	if s.eventTimer {
		secs = event
	}
	unit, rate := perfmodel.RateUnit(s.Metric)
	if !rate {
		return kernel, secs
	}
	return kernel, res.Work / secs / unit
}
