package bench

import (
	"gpucmp/internal/arch"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/sim"
)

// Record is what a driver ran since its last ResetTimer, in program order:
// every launch's trace, and every host<->device copy placed among them.
type Record struct {
	Traces []*sim.Trace
	Copies []Copy
}

// Copy is one host<->device copy: its size, and how many of the record's
// launches came before it.
type Copy struct {
	Launches int
	Bytes    int64
}

// Seconds is a record priced under one toolchain's costs on one device.
type Seconds struct {
	Kernel   float64 // every launch, in launch order
	Event    float64 // Kernel less launch overhead: the event timer's view
	Transfer float64 // every copy, in copy order
	EndToEnd float64 // launches and copies, in program order
}

// Price is the one place a run's seconds are computed: each launch is
// priced by perfmodel.KernelTime and each copy by perfmodel.TransferTimeOn.
func (r Record) Price(a *arch.Device, tc Toolchain) Seconds {
	var s Seconds
	copies := r.Copies
	for i := 0; i <= len(r.Traces); i++ {
		for ; len(copies) > 0 && copies[0].Launches == i; copies = copies[1:] {
			t := perfmodel.TransferTimeOn(a, tc.Costs, copies[0].Bytes)
			s.Transfer += t
			s.EndToEnd += t
		}
		if i < len(r.Traces) {
			b := perfmodel.KernelTime(a, tc.Costs, r.Traces[i])
			s.Kernel += b.Total
			s.Event += b.Total - b.Launch
			s.EndToEnd += b.Total
		}
	}
	return s
}

// Price re-prices a finished run under a toolchain's costs on a device: it
// returns a copy whose seconds and Value are its record priced as Spec.Run
// prices it, and whose Toolchain names tc. An aborted run has nothing to
// price and is returned as it is.
func (s Spec) Price(res *Result, a *arch.Device, tc Toolchain) *Result {
	if res.Err != nil {
		return res
	}
	out := *res
	out.Toolchain = tc.Name
	s.price(&out, a, tc)
	return &out
}

// price sets a run's seconds from its record, and its Value: the seconds
// of the Spec's clock (kernel seconds, or the event timer's, which exclude
// launch overhead) for a time-valued metric, Work per second in the
// metric's unit otherwise.
func (s Spec) price(res *Result, a *arch.Device, tc Toolchain) {
	p := res.Record.Price(a, tc)
	res.KernelSeconds, res.TransferSeconds, res.EndToEndSeconds = p.Kernel, p.Transfer, p.EndToEnd
	res.Value = p.Kernel
	if s.eventTimer {
		res.Value = p.Event
	}
	if unit, rate := perfmodel.RateUnit(s.Metric); rate {
		res.Value = res.Work / res.Value / unit
	}
}
