package main

import (
	"runtime"
	"time"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/sim"
)

// processCounters is a reading of the process-wide counters the simulator,
// the compile cache and the Go runtime keep. The fleet of the serve
// workloads runs in this process, so the readings cover its workers too.
type processCounters struct {
	mem       runtime.MemStats
	eng       sim.EngineStats
	hit, miss uint64
}

func readProcessCounters() *processCounters {
	c := &processCounters{eng: sim.GlobalEngineStats()}
	c.hit, c.miss = compiler.CompileCacheStats()
	runtime.ReadMemStats(&c.mem)
	return c
}

// addCounterDeltas records what happened between two readings. seconds is
// the total latency of every operation run in between.
func (lm layerMetrics) addCounterDeltas(c0, c1 *processCounters, seconds float64) {
	var instrs int64
	for name, n := range c1.eng.WarpInstrs {
		instrs += n - c0.eng.WarpInstrs[name]
	}
	mwi := float64(instrs) / 1e6
	lm.set("sim.block_compiles", float64(c1.eng.BlockCompiles-c0.eng.BlockCompiles), "count", 0)
	if mwi > 0 {
		lm.set("sim.mwi_per_s", mwi/seconds, "1e6/s", 0)
		lm.set("sim.superinstr_hit_rate", float64(c1.eng.SuperinstrOps-c0.eng.SuperinstrOps)/float64(instrs), "ratio", 0)
		lm.set("sim.allocs_per_mwi", float64(c1.mem.Mallocs-c0.mem.Mallocs)/mwi, "count", 0)
	}
	if lookups := float64(c1.hit - c0.hit + c1.miss - c0.miss); lookups > 0 {
		lm.set("compiler.cache_hit_ratio", float64(c1.hit-c0.hit)/lookups, "ratio", int(lookups))
	}
}

// probeDeviceNew times sim.NewDevice directly, a few times per device.
func probeDeviceNew(lm layerMetrics) {
	var v []float64
	for rep := 0; rep < 4; rep++ {
		for _, a := range arch.All() {
			t0 := time.Now()
			sim.NewDevice(a) //nolint:errcheck // arch.All holds valid devices
			v = append(v, time.Since(t0).Seconds())
		}
	}
	lm.p50("sim.device_new_ms", v, "ms")
}

// newBallast returns live heap that is never touched. The in-process
// workloads construct a device per operation, sim.NewDevice allocates a
// 128 MiB backing store per device, and what that costs depends on what the
// Go runtime did with the previous one: about 0.4 ms when the scavenger has
// returned the span to the OS (fresh zero pages, nothing to clear), 13 ms
// when the span is reused dirty (one memclr) and 70 ms when it is cleared
// while partly returned (32k page faults). With the tiny live heap of these
// workloads, which of the three a run gets is scavenger timing: fuzz-oracle's
// op_p50_ms ranged 94-201 ms between runs of one commit. A live heap above
// the device size keeps a freed span inside the heap goal, so every run pays
// the dirty-reuse cost, the common one, and the range shrank to 139-146 ms.
// The serve workloads keep the runtime as shipped: a ballast would also make
// collections rarer and hide serve-hot's allocation cost.
func newBallast() []byte { return make([]byte, 256<<20) }
