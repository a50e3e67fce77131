package sched

import (
	"gpucmp/internal/arch"
	"gpucmp/internal/bench"
)

// GridJobs returns the full measurement grid — every benchmark on every
// device with every toolchain that supports it, each with its toolchain's
// native configuration at the given scale — in a deterministic order:
// devices in arch.All order, toolchains cuda-then-opencl, benchmarks in
// Table II order. This is the job list behind the figure table's grid
// row (the union of the data behind Fig. 3 and Table VI).
func GridJobs(scale int) []Job {
	var jobs []Job
	for _, a := range arch.All() {
		for _, tc := range bench.Toolchains(a) {
			for _, spec := range bench.Registry() {
				cfg := bench.NativeConfig(tc)
				cfg.Scale = scale
				jobs = append(jobs, Job{Benchmark: spec.Name, Device: a.Name, Toolchain: tc, Config: cfg})
			}
		}
	}
	return jobs
}
