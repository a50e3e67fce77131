// Command loadgen replays a mixed gpucmpd workload against a coordinator
// (or a single worker) at a configurable request rate and scores the
// fleet against latency/throughput SLOs. The mix mirrors real traffic:
// cache-hot repeated /run cells, grid sweeps that fan out over distinct
// content keys, paper-figure regenerations, and hostile /kernels
// submissions that must come back typed, never as untyped 5xx.
//
//	loadgen -target http://127.0.0.1:8480 -rps 80 -duration 20s \
//	  -out BENCH_serve.json -maxp99 2s -minrps 40 -maxerr 0
//
// The run writes BENCH_serve.json — offered vs achieved RPS, p50/p99/p999
// latency, error/shed/reject rates, cache hit rate, and the
// coordinator's hedge/failover/dedup counters — and exits nonzero when
// any SLO gate fails, so CI can gate merges on serving behaviour.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"gpucmp/internal/cluster"
	"gpucmp/internal/kir"
)

// sample is one completed request's accounting.
type sample struct {
	class     string // ok | reject | shed | error
	latency   time.Duration
	cacheHit  bool
	cacheInfo bool // X-Cache was present (hit/miss/shared)
}

// Report is the BENCH_serve.json schema.
type Report struct {
	Target          string  `json:"target"`
	Seed            int64   `json:"seed"`
	DurationSeconds float64 `json:"duration_seconds"`
	OfferedRPS      float64 `json:"offered_rps"`
	AchievedRPS     float64 `json:"achieved_rps"` // completed (non-error) responses per second

	Requests int `json:"requests"`
	OK       int `json:"ok"`       // 2xx
	Rejected int `json:"rejected"` // typed 4xx (hostile traffic answered correctly)
	Shed     int `json:"shed"`     // typed 429/503 admission refusals
	Errors   int `json:"errors"`   // transport failures and untyped 5xx — SLO-gated

	LatencyMS    Percentiles `json:"latency_ms"`     // over OK responses
	CacheHitRate float64     `json:"cache_hit_rate"` // hit+shared over responses carrying X-Cache

	Coordinator *cluster.Snapshot `json:"coordinator,omitempty"`

	SLO SLO `json:"slo"`
}

type Percentiles struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

type SLO struct {
	MaxP99MS float64  `json:"maxp99_ms,omitempty"`
	MinRPS   float64  `json:"minrps,omitempty"`
	MaxErr   float64  `json:"maxerr"` // error fraction ceiling (negative = ungated)
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// errUsage marks a command-line error, on which main exits 2; any other
// error, a failed SLO gate among them, exits 1.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Printf("loadgen: %v", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8480", "coordinator (or worker) base URL")
	duration := fs.Duration("duration", 20*time.Second, "how long to offer load")
	rps := fs.Float64("rps", 50, "offered requests per second (open loop)")
	concurrency := fs.Int("concurrency", 256, "max in-flight requests (open loop degrades to closed beyond this)")
	seed := fs.Int64("seed", 1, "workload-mix seed")
	tenants := fs.Int("tenants", 4, "distinct X-Tenant values to spread /kernels across")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	out := fs.String("out", "BENCH_serve.json", "report path (empty = stdout only)")
	maxP99 := fs.Duration("maxp99", 0, "SLO gate: fail if p99 latency exceeds this (0 = ungated)")
	minRPS := fs.Float64("minrps", 0, "SLO gate: fail if achieved RPS falls below this (0 = ungated)")
	maxErr := fs.Float64("maxerr", -1, "SLO gate: fail if the error fraction exceeds this (negative = ungated; 0 = no errors allowed)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *rps <= 0 {
		return errors.New("-rps must be positive")
	}

	kernel, err := kernelBody()
	if err != nil {
		return err
	}
	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: *concurrency,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	g := &generator{
		target:  *target,
		client:  client,
		rng:     rand.New(rand.NewSource(*seed)),
		tenants: *tenants,
		kernel:  kernel,
	}

	log.Printf("loadgen: %v of %.0f rps against %s (seed %d)", *duration, *rps, *target, *seed)
	samples := g.run(*duration, *rps, *concurrency)

	rep := score(samples, *target, *seed, *duration, *rps)
	rep.Coordinator = fetchCoordinatorMetrics(client, *target)
	gate(&rep, *maxP99, *minRPS, *maxErr)

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		log.Printf("loadgen: wrote %s", *out)
	}
	if _, err := stdout.Write(blob); err != nil {
		return err
	}

	if !rep.SLO.Pass {
		return fmt.Errorf("SLO FAIL: %v", rep.SLO.Failures)
	}
	log.Printf("loadgen: SLO PASS (ok=%d reject=%d shed=%d err=%d p99=%.1fms rps=%.1f)",
		rep.OK, rep.Rejected, rep.Shed, rep.Errors, rep.LatencyMS.P99, rep.AchievedRPS)
	return nil
}

// generator owns the workload mix. All randomness flows from one seeded
// source (guarded by mu: request goroutines draw their request shape
// before launching).
type generator struct {
	target  string
	client  *http.Client
	mu      sync.Mutex
	rng     *rand.Rand
	tenants int
	kernel  []byte
}

// request is one drawn unit of traffic.
type request struct {
	method string
	path   string
	body   []byte
	tenant string
}

// cacheHotJobs is the small repeated working set: these keys recur
// constantly, so after warmup they should be served from worker caches.
var cacheHotJobs = []string{
	`{"benchmark":"Reduce","device":"GeForce GTX480","toolchain":"cuda","config":{"scale":16}}`,
	`{"benchmark":"Reduce","device":"GeForce GTX480","toolchain":"opencl","config":{"scale":16}}`,
	`{"benchmark":"Scan","device":"GeForce GTX480","toolchain":"cuda","config":{"scale":16}}`,
	`{"benchmark":"Sobel","device":"GeForce GTX480","toolchain":"opencl","config":{"scale":16}}`,
	`{"benchmark":"TranP","device":"GeForce GTX480","toolchain":"cuda","config":{"scale":16}}`,
}

// sweepBenchmarks x sweepScales is the grid-sweep population: distinct
// content keys that exercise routing spread across shards.
var sweepBenchmarks = []string{"Reduce", "Scan", "Sobel", "TranP"}
var sweepScales = []int{8, 16, 32, 64}

var hostileBodies = [][]byte{
	[]byte(`]]]not json`),
	[]byte(`{"grid":-1,"block":4,"out":"out"}`),
	[]byte(`{"grid":1,"block":4,"out":"nope","buffers":{"out":[0]},"kernel":{"name":"x"}}`),
}

// draw picks the next request from the traffic mix:
//
//	55% cache-hot /run repeats    (dedup + cache path)
//	20% /run grid sweep           (distinct keys, routing spread)
//	10% figure regeneration       (expensive artifact path)
//	10% well-formed /kernels      (tenant quota + submission pipeline)
//	 5% hostile /kernels          (must come back typed 4xx)
func (g *generator) draw() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	tenant := fmt.Sprintf("tenant-%d", g.rng.Intn(g.tenants))
	switch p := g.rng.Float64(); {
	case p < 0.55:
		return request{"POST", "/run", []byte(cacheHotJobs[g.rng.Intn(len(cacheHotJobs))]), tenant}
	case p < 0.75:
		b := sweepBenchmarks[g.rng.Intn(len(sweepBenchmarks))]
		sc := sweepScales[g.rng.Intn(len(sweepScales))]
		body := fmt.Sprintf(`{"benchmark":%q,"device":"GeForce GTX480","toolchain":"opencl","config":{"scale":%d}}`, b, sc)
		return request{"POST", "/run", []byte(body), tenant}
	case p < 0.85:
		// Large scale divisor = small problem: regeneration stays cheap
		// enough to repeat under load.
		figs := []string{"fig1", "fig7", "tableV"}
		return request{"GET", "/figures/" + figs[g.rng.Intn(len(figs))] + "?scale=64", nil, tenant}
	case p < 0.95:
		return request{"POST", "/kernels", g.kernel, tenant}
	default:
		return request{"POST", "/kernels", hostileBodies[g.rng.Intn(len(hostileBodies))], tenant}
	}
}

// run offers load open-loop at rps (positive) for the duration and
// returns every completed sample.
func (g *generator) run(duration time.Duration, rps float64, concurrency int) []sample {
	interval := time.Duration(float64(time.Second) / rps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(duration)

	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	sem := make(chan struct{}, concurrency)
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-ticker.C:
			req := g.draw()
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				s := g.do(req)
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return samples
}

// do issues one request and classifies the outcome.
func (g *generator) do(r request) sample {
	start := time.Now()
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(context.Background(), r.method, g.target+r.path, rd)
	if err != nil {
		return sample{class: "error", latency: time.Since(start)}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", r.tenant)
	resp, err := g.client.Do(req)
	if err != nil {
		return sample{class: "error", latency: time.Since(start)}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	s := sample{latency: time.Since(start)}
	if xc := resp.Header.Get("X-Cache"); xc != "" {
		s.cacheInfo = true
		s.cacheHit = xc == "hit" || xc == "shared"
	}
	s.class = classify(resp.StatusCode, body)
	return s
}

// classify buckets a response. The contract under test: every refusal the
// fleet issues is typed (carries a machine-readable code), so an untyped
// 5xx is an error, full stop.
func classify(status int, body []byte) string {
	switch {
	case status >= 200 && status < 300:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed" // quota refusal, typed by construction (Retry-After)
	case status == http.StatusServiceUnavailable:
		var e struct {
			Code string `json:"code"`
		}
		if json.Unmarshal(body, &e) == nil && e.Code != "" {
			return "shed" // typed admission refusal (shedding/draining/unavailable/no-workers)
		}
		return "error"
	case status >= 400 && status < 500:
		return "reject"
	default:
		return "error"
	}
}

// score folds samples into the report (SLO fields are filled by gate).
func score(samples []sample, target string, seed int64, duration time.Duration, rps float64) Report {
	rep := Report{
		Target:          target,
		Seed:            seed,
		DurationSeconds: duration.Seconds(),
		OfferedRPS:      rps,
		Requests:        len(samples),
	}
	var okLat []time.Duration
	var hits, withInfo int
	for _, s := range samples {
		switch s.class {
		case "ok":
			rep.OK++
			okLat = append(okLat, s.latency)
		case "reject":
			rep.Rejected++
		case "shed":
			rep.Shed++
		default:
			rep.Errors++
		}
		if s.cacheInfo {
			withInfo++
			if s.cacheHit {
				hits++
			}
		}
	}
	rep.AchievedRPS = float64(rep.OK+rep.Rejected+rep.Shed) / duration.Seconds()
	if withInfo > 0 {
		rep.CacheHitRate = float64(hits) / float64(withInfo)
	}
	if len(okLat) > 0 {
		sort.Slice(okLat, func(i, j int) bool { return okLat[i] < okLat[j] })
		ms := func(q float64) float64 {
			i := int(q * float64(len(okLat)))
			if i >= len(okLat) {
				i = len(okLat) - 1
			}
			return float64(okLat[i]) / float64(time.Millisecond)
		}
		rep.LatencyMS = Percentiles{
			P50: ms(0.50), P90: ms(0.90), P99: ms(0.99), P999: ms(0.999),
			Max: float64(okLat[len(okLat)-1]) / float64(time.Millisecond),
		}
	}
	return rep
}

// gate applies the SLO thresholds.
func gate(rep *Report, maxP99 time.Duration, minRPS, maxErr float64) {
	rep.SLO = SLO{
		MaxP99MS: float64(maxP99) / float64(time.Millisecond),
		MinRPS:   minRPS,
		MaxErr:   maxErr,
		Pass:     true,
	}
	fail := func(format string, args ...any) {
		rep.SLO.Pass = false
		rep.SLO.Failures = append(rep.SLO.Failures, fmt.Sprintf(format, args...))
	}
	if rep.OK == 0 {
		fail("no successful responses at all")
	}
	if maxP99 > 0 && rep.LatencyMS.P99 > rep.SLO.MaxP99MS {
		fail("p99 %.1fms exceeds SLO %.1fms", rep.LatencyMS.P99, rep.SLO.MaxP99MS)
	}
	if minRPS > 0 && rep.AchievedRPS < minRPS {
		fail("achieved %.1f rps below SLO %.1f", rep.AchievedRPS, minRPS)
	}
	if maxErr >= 0 && rep.Requests > 0 {
		frac := float64(rep.Errors) / float64(rep.Requests)
		if frac > maxErr {
			fail("error fraction %.4f exceeds SLO %.4f (%d errors)", frac, maxErr, rep.Errors)
		}
	}
}

// fetchCoordinatorMetrics pulls the fleet snapshot; nil when the target
// is a bare worker (different JSON shape) or unreachable.
func fetchCoordinatorMetrics(client *http.Client, target string) *cluster.Snapshot {
	resp, err := client.Get(target + "/metrics?format=json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	var snap cluster.Snapshot
	if json.Unmarshal(body, &snap) != nil || snap.RingMembers == 0 {
		return nil
	}
	return &snap
}

// kernelBody builds the canonical well-behaved /kernels submission:
// out[gid] = gid across a 2x4 launch. Every draw submits the same body,
// so the fleet's content-keyed dedup and tenant caches get exercised.
func kernelBody() ([]byte, error) {
	b := kir.NewKernel("store")
	out := b.GlobalBuffer("out", kir.U32)
	gid := b.Declare("gid", b.GlobalIDX())
	b.Store(out, gid, gid)
	k, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("building submission kernel: %w", err)
	}
	body, err := json.Marshal(map[string]any{
		"grid": 2, "block": 4, "out": "out",
		"buffers": map[string][]uint32{"out": make([]uint32, 8)},
		"kernel":  kir.EncodeKernelJSON(k),
	})
	if err != nil {
		return nil, fmt.Errorf("marshalling submission: %w", err)
	}
	return body, nil
}
