package sim

import "sync/atomic"

// Engine selects the interpreter a Device uses. There are two, over one
// semantics — same results, traces, error strings and watchdog verdicts,
// which the full-corpus equivalence gate in internal/fuzz pins:
//
//   - EngineThreaded, the zero value, is the production interpreter:
//     predecoded ops (decode.go), per-CU arenas (arena.go), uniformity
//     tracking (fast.go), straight-line runs fused into superinstructions
//     with a single dispatch (fuse.go, threaded.go), and hot fused
//     segments compiled into specialised Go closures (compile.go).
//   - EngineReference is the pre-optimization interpreter (warp.go,
//     memops.go), frozen as the bit-identity oracle and the speedup
//     baseline.
type Engine uint8

const (
	EngineThreaded Engine = iota
	EngineReference
)

func (e Engine) String() string {
	if e == EngineReference {
		return "reference"
	}
	return "threaded"
}

// EngineStats is a snapshot of the process-wide interpreter counters. The
// superinstruction and block-compile numbers exist so the fusion layer is
// observable (simbench hit rates, /metrics) without touching the Trace,
// which must stay bit-identical across engines.
type EngineStats struct {
	// SuperinstrHits counts fused-segment executions (one hit = one
	// dispatch covering SuperinstrOps/SuperinstrHits ops on average).
	SuperinstrHits int64 `json:"superinstr_hits"`
	// SuperinstrOps counts warp instructions retired inside fused segments.
	SuperinstrOps int64 `json:"superinstr_ops"`
	// BlockCompiles counts fused segments compiled into closures after
	// crossing the hotness threshold.
	BlockCompiles int64 `json:"block_compiles"`

	// Per-engine retirement counters: warp and lane instructions executed
	// by completed launches, keyed by engine name.
	WarpInstrs map[string]int64 `json:"warp_instrs"`
	LaneInstrs map[string]int64 `json:"lane_instrs"`
}

// engineGlobals holds the process-wide atomic counters behind EngineStats.
var engineGlobals struct {
	superHits     atomic.Int64
	superOps      atomic.Int64
	blockCompiles atomic.Int64

	warpInstrs [2]atomic.Int64 // indexed by Engine
	laneInstrs [2]atomic.Int64
}

// GlobalEngineStats snapshots the process-wide interpreter counters.
func GlobalEngineStats() EngineStats {
	g := &engineGlobals
	s := EngineStats{
		SuperinstrHits: g.superHits.Load(),
		SuperinstrOps:  g.superOps.Load(),
		BlockCompiles:  g.blockCompiles.Load(),
		WarpInstrs:     map[string]int64{},
		LaneInstrs:     map[string]int64{},
	}
	for e := EngineThreaded; e <= EngineReference; e++ {
		if n := g.warpInstrs[e].Load(); n != 0 {
			s.WarpInstrs[e.String()] = n
		}
		if n := g.laneInstrs[e].Load(); n != 0 {
			s.LaneInstrs[e.String()] = n
		}
	}
	return s
}

// DeviceEngineStats reports this device's own fusion counters (superinstr
// hits / ops covered / block compiles) accumulated since creation —
// simbench uses the per-cell deltas for hit rates.
func (d *Device) DeviceEngineStats() (hits, ops, compiles int64) {
	return d.superHits.Load(), d.superOps.Load(), d.blockCompiles.Load()
}
