package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// decorators and middleware. Parent 0 marks an operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     string `json:"op"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write puts them on disk when the run ends.
// Span i has ID i+1, so a span's parent is found by index.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// responseBytes holds the size of every reply a traced worker wrote.
	responseBytes []float64
	// coordSpan is the coordinator handler's span while a request is in it.
	coordSpan atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int64, layer, op string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

// end closes a span and returns how long it was open.
func (t *tracer) end(id int64) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// spanHeader carries a span ID across an HTTP hop, so the receiving
// middleware knows its parent.
const spanHeader = "X-Bench-Span"

func parseSpanHeader(v string) int64 {
	id, _ := strconv.ParseInt(v, 10, 64)
	return id
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	blob, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, blob, 0o644)
}

// selfTimes attributes every span's self time — its duration minus the part
// its children cover — to the span's layer within the span's operation. It
// returns, per root span in order, layer → self seconds, and the roots'
// durations. A span counts only while its parent is open: what a cancelled
// hedge does after the winner's reply went out is not on the operation's
// path. Spans never closed are skipped.
func (t *tracer) selfTimes() (perOp []map[string]float64, opSeconds []float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	rootOf := make([]int, len(spans)) // index into perOp, -1 when skipped
	for i := range spans {
		s := &spans[i]
		switch {
		case s.End == 0:
			rootOf[i] = -1
		case s.Parent == 0:
			rootOf[i] = len(perOp)
			perOp = append(perOp, map[string]float64{})
			opSeconds = append(opSeconds, float64(s.End-s.Start)/1e9)
		default:
			p := spans[s.Parent-1] // parents are recorded, and clipped, first
			rootOf[i] = rootOf[s.Parent-1]
			s.Start, s.End = max(s.Start, p.Start), min(s.End, p.End)
			if s.End <= s.Start {
				rootOf[i] = -1
			}
		}
	}
	children := make(map[int64][]span)
	for i, s := range spans {
		if rootOf[i] >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i, s := range spans {
		if rootOf[i] < 0 {
			continue
		}
		// Covered time is the union of the children's intervals: hedged
		// hops overlap.
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			if lo := max(k.Start, edge); k.End > lo {
				covered += k.End - lo
				edge = k.End
			}
		}
		perOp[rootOf[i]][s.Layer] += float64(s.End-s.Start-covered) / 1e9
	}
	return perOp, opSeconds
}

// durations returns, per root span in order, the summed duration in seconds
// of the op's spans that match layer and op prefix (op "" matches all).
func (t *tracer) durations(layer, opPrefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	rootOf := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent == 0 {
			rootOf[i] = len(out)
			out = append(out, 0)
		} else {
			rootOf[i] = rootOf[s.Parent-1]
		}
		if s.End != 0 && s.Layer == layer && strings.HasPrefix(s.Op, opPrefix) {
			out[rootOf[i]] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// layerMetrics collects a traced run's per-layer metrics.
type layerMetrics struct {
	m         map[string]metric
	attempted int
	failed    int
}

func newLayerMetrics() layerMetrics { return layerMetrics{m: map[string]metric{}} }

func (lm layerMetrics) set(name string, value float64, unit string, count int) {
	lm.m[name] = metric{Value: value, Unit: unit, Count: count}
}

// durationScale converts seconds to the units durations are reported in.
var durationScale = map[string]float64{"ms": 1e3, "us": 1e6}

// p50 records the median of samples (given in seconds) scaled to unit.
func (lm layerMetrics) p50(name string, seconds []float64, unit string) {
	lm.m[name] = metric{Value: median(seconds) * durationScale[unit], Unit: unit, Count: len(seconds), Note: "p50"}
}

// addSelfTimes records, for each layer in names, the layer's median self
// time per op under the given metric name; the traced op latency; and the
// share of it that all self times add up to (1 when every span nests inside
// its parent).
func (lm layerMetrics) addSelfTimes(t *tracer, names map[string]string) {
	perOp, opSeconds := t.selfTimes()
	var selfSum, opSum float64
	for i, layers := range perOp {
		opSum += opSeconds[i]
		for _, s := range layers {
			selfSum += s
		}
	}
	for layer, name := range names {
		v := make([]float64, len(perOp)) // an op without a span in a layer spent no time there
		for i, layers := range perOp {
			v[i] = layers[layer]
		}
		lm.p50(name, v, "ms")
	}
	lm.p50("trace.op_ms", opSeconds, "ms")
	if opSum > 0 {
		lm.set("trace.self_sum_share", selfSum/opSum, "ratio", len(perOp))
	}
}

// pairedReplay runs each of n operations twice, with spans on and with spans
// off, back to back and alternating which goes first, so the two latencies
// of an operation are taken under the same host conditions. traced and
// untraced run operation i and return its latency in seconds.
func pairedReplay(n int, traced, untraced func(i int) float64) (tr, un []float64) {
	tr, un = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			tr[i], un[i] = traced(i), untraced(i)
		} else {
			un[i], tr[i] = untraced(i), traced(i)
		}
	}
	return tr, un
}

// addOverhead records the tracing overhead, (traced - untraced) / untraced:
// the median over the operations that ran traced first, averaged with the
// median over those that ran untraced first, so that whatever the second
// run of an operation gains from the first cancels. It returns the replay's
// total seconds.
func (lm layerMetrics) addOverhead(tr, un []float64) (total float64) {
	var rel [2][]float64
	for i := range tr {
		rel[i%2] = append(rel[i%2], (tr[i]-un[i])/un[i])
		total += tr[i] + un[i]
	}
	lm.set("trace.overhead_share", (median(rel[0])+median(rel[1]))/2, "ratio", len(tr))
	return total
}

// addFloor gives every declared duration the workload did not measure — a
// layer it does not cross — the tracer's own floor: the mean duration of an
// empty span, about 0.1 us. The row then says "nothing, as measured"
// and, unlike a literal 0, never reads the same on two runs.
func (lm layerMetrics) addFloor() {
	const spans = 1000
	scratch := newTracer()
	var total time.Duration
	for i := 0; i < spans; i++ {
		total += scratch.end(scratch.begin(0, "", ""))
	}
	floor := total.Seconds() / spans
	for _, d := range perLayer {
		scale, isDuration := durationScale[d.Unit]
		if _, measured := lm.m[d.Name]; isDuration && !measured {
			lm.m[d.Name] = metric{Value: floor * scale, Unit: d.Unit, Note: "not on this workload's path: empty-span floor"}
		}
	}
}

// addHost records the process-level context every row is read against.
func (lm layerMetrics) addHost() {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	lm.set("host.peak_rss_mb", peakRSSMB(), "MB", 0)
	lm.set("host.gc_pause_ms", float64(mem.PauseTotalNs)/1e6, "ms", int(mem.NumGC))
	lm.set("host.alloc_mb", float64(mem.TotalAlloc)/(1<<20), "MB", 0)
	lm.set("host.cpus", float64(runtime.NumCPU()), "count", 0)
	lm.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", 0)
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
