package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// opResult is one operation of a timed round.
type opResult struct {
	Latency time.Duration
	OK      bool // succeeded and its output verified
}

// workload is one of the four named workloads. A timed section is a fixed
// number of rounds, and every round of a workload has the same composition,
// so rounds are repetitions of the same work.
type workload interface {
	Name() string
	// Setup generates the inputs from the seed and brings the system to the
	// state the timed section starts from (fleet up, caches warm).
	Setup(seed int64) error
	// Rounds is the number of rounds in the timed section. It depends on
	// nothing but the requested length, so sample counts — and with them the
	// percentile op_tail_ms reports — repeat from run to run.
	Rounds() int
	// Round runs round r with tracing off: one result per operation.
	Round(r int) []opResult
	// Verify runs the checks that wait until after the timed section and
	// returns how many more operations they failed.
	Verify() int
	// Trace replays the workload's traced subset with spans on and returns
	// the per-layer metrics this workload can measure.
	Trace(t *tracer) (layerMetrics, error)
	Close()
}

// roundsFor is how many rounds of roundSeconds each (on the reference host)
// fill a timed section, at least three so that a median means something.
func roundsFor(seconds int, roundSeconds float64) int {
	return max(3, int(float64(seconds)/roundSeconds+0.5))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Count is the number of samples behind the value (0 = not a sample
	// statistic); Note says which percentile or estimator produced it.
	Count int    `json:"count,omitempty"`
	Note  string `json:"note,omitempty"`
}

// plainResult is the outcome of one untraced run of one workload.
type plainResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Diagnostics, not end-to-end metrics.
	SetupSeconds []float64 `json:"setup_seconds"`
	RoundSeconds []float64 `json:"round_seconds"`
	WallSeconds  float64   `json:"timed_wall_seconds"`
	P999Ms       float64   `json:"op_p999_ms"`
	MaxMs        float64   `json:"op_max_ms"`
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// runPlain sets the workload up setups times (keeping the last), runs the
// timed section with tracing off and scores it.
func runPlain(w workload, seed int64, setups int) (*plainResult, error) {
	res := &plainResult{Workload: w.Name(), Seed: seed, Metrics: map[string]metric{}}
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.Close()
		}
		runtime.GC() // every repetition starts from a collected heap
		t0 := time.Now()
		if err := w.Setup(seed); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.Name(), err)
		}
		res.SetupSeconds = append(res.SetupSeconds, time.Since(t0).Seconds())
	}
	defer w.Close()

	// Every metric is computed per round and the run reports the median
	// over rounds: a burst of host contention slows some rounds and never
	// speeds one up, so the median round is steadier than the total.
	var perRound [3][]float64 // ops/s, p50 ms, tail ms
	var all []float64         // every latency, for the diagnostics
	var tailName string
	opsPerRound := 0
	t0 := time.Now()
	for r := 0; r < w.Rounds(); r++ {
		rt := time.Now()
		ops := w.Round(r)
		wall := time.Since(rt).Seconds()
		res.RoundSeconds = append(res.RoundSeconds, wall)
		if r == 0 {
			opsPerRound = len(ops)
		} else if len(ops) != opsPerRound {
			return nil, fmt.Errorf("%s: round %d has %d ops, round 0 had %d", w.Name(), r, len(ops), opsPerRound)
		}
		lat := make([]float64, len(ops))
		verified := 0
		for i, op := range ops {
			lat[i] = ms(op.Latency)
			if op.OK {
				verified++
			}
		}
		res.Attempted += len(ops)
		res.Failed += len(ops) - verified
		all = append(all, lat...)
		sort.Float64s(lat)
		var tailV float64
		tailV, tailName = tail(lat)
		perRound[0] = append(perRound[0], float64(verified)/wall)
		perRound[1] = append(perRound[1], quantile(lat, 0.5))
		perRound[2] = append(perRound[2], tailV)
	}
	res.WallSeconds = time.Since(t0).Seconds()
	res.Failed += w.Verify()

	note := fmt.Sprintf("median of %d rounds of %d ops", len(res.RoundSeconds), opsPerRound)
	res.Metrics["setup_s"] = metric{Value: median(res.SetupSeconds), Unit: "s", Count: setups, Note: "median of set-ups"}
	res.Metrics["ops_per_s"] = metric{Value: median(perRound[0]), Unit: "1/s", Count: len(all), Note: note}
	res.Metrics["op_p50_ms"] = metric{Value: median(perRound[1]), Unit: "ms", Count: len(all), Note: "p50, " + note}
	res.Metrics["op_tail_ms"] = metric{Value: median(perRound[2]), Unit: "ms", Count: len(all), Note: tailName + ", " + note}
	sort.Float64s(all)
	res.P999Ms = quantile(all, 0.999)
	res.MaxMs = all[len(all)-1]
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", w.Name(), name, m.Value)
		}
	}
	return res, nil
}

// tracedResult is the outcome of one traced run of one workload.
type tracedResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// runTraced sets the workload up once and replays its traced subset.
func runTraced(w workload, seed int64, outDir string) (*tracedResult, error) {
	if err := w.Setup(seed); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.Name(), err)
	}
	defer w.Close()
	t := newTracer()
	lm, err := w.Trace(t)
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.Name(), err)
	}
	lm.addHost()
	lm.addFloor()
	res := &tracedResult{Workload: w.Name(), Seed: seed, Attempted: lm.attempted, Failed: lm.failed, Metrics: lm.m}
	if outDir != "" {
		res.TraceFile, err = t.write(outDir, w.Name())
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
