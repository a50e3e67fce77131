package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/clock"
	"gpucmp/internal/fault"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// epoch is where every Fake clock in this package's tests starts, so that
// none of them is built from the wall clock.
var epoch = time.Date(2011, 9, 13, 0, 0, 0, 0, time.UTC)

// The fleet scenario is the serving SLO, replayed in virtual time: three
// in-process workers and their coordinator share one clock; one worker is
// a straggler, whose real fault injector stalls 30% of its launches by
// 250 ms; a healthy worker is killed halfway through; and a seeded mix of
// requests is sent one at a time, scenarioGap apart. The clock moves only
// while the fleet is blocked on a timer, so a run of the seed always takes
// the same path, and a request's latency is the virtual time it took: the
// stalls, hedge delays and probe rounds it waited through, and nothing of
// the host's speed.
const (
	scenarioSeed     = 42
	scenarioRequests = 200
	scenarioGap      = 50 * time.Millisecond // virtual inter-arrival
	slowWorker       = "http://w0"
	victim           = "http://w1"
	killAt           = scenarioRequests / 2 // the victim dies before this request
)

// slowSchedule is the straggler's fault schedule.
var slowSchedule = fault.Schedule{SlowRate: 0.3, SlowDelay: 250 * time.Millisecond}

// memFleet is the Config.Client transport of the scenario: in-process
// worker handlers under fixed names, so the ring is the same in every run,
// and no listener or socket between them and the coordinator.
type memFleet struct {
	workers map[string]http.Handler // by host

	mu   sync.Mutex
	dead map[string]bool // killed workers refuse every connection
}

func (f *memFleet) kill(worker string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead[strings.TrimPrefix(worker, "http://")] = true
}

func (f *memFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	dead := f.dead[req.URL.Host]
	f.mu.Unlock()
	if dead {
		return nil, errors.New("mem fleet: connection refused")
	}
	ctx := req.Context()
	in := req.Clone(ctx)
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	f.workers[req.URL.Host].ServeHTTP(rec, in)
	if err := ctx.Err(); err != nil {
		// As over net/http, a cancelled caller gets its context's error,
		// not the reply the worker wrote as it gave up.
		return nil, err
	}
	return rec.Result(), nil
}

// timerKind is what armed a timer on the scenario's clock.
type timerKind string

const (
	probeTick  timerKind = "probe" // the coordinator's probe loop
	hedgeTimer timerKind = "hedge" // forward's hedge
	stallTimer timerKind = "stall" // a worker's injected slow launch
)

// armers names the function that arms each kind of timer.
var armers = map[string]timerKind{
	"gpucmp/internal/cluster.(*Coordinator).Start.func1":       probeTick,
	"gpucmp/internal/cluster.(*Coordinator).forward":           hedgeTimer,
	"gpucmp/internal/sched.(*Scheduler).executeIsolated.func1": stallTimer,
}

// armedBy returns the kind of timer its caller's caller is arming, read
// from the call stack; for a timer of no known kind, it returns the name
// of the function that armed it.
func armedBy() timerKind {
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(3, pcs)])
	first := ""
	for {
		fr, more := frames.Next()
		if kind, ok := armers[fr.Function]; ok {
			return kind
		}
		if first == "" {
			first = fr.Function
		}
		if !more {
			return timerKind(first)
		}
	}
}

// simClock is the scenario's one clock: a Fake whose armed timers the
// test can list by kind and deadline, and whose changes it can wait for.
type simClock struct {
	fake *clock.Fake

	mu      sync.Mutex
	changed sync.Cond   // broadcast on every arm, stop and reply
	armed   []*simTimer // in arming order
	replied bool        // the request in flight has its reply
}

type simTimer struct {
	c        *simClock
	t        clock.Timer
	kind     timerKind
	deadline time.Time
}

func newSimClock() *simClock {
	c := &simClock{fake: clock.NewFake(epoch)}
	c.changed.L = &c.mu
	return c
}

func (c *simClock) Now() time.Time { return c.fake.Now() }

func (c *simClock) AfterFunc(d time.Duration, fn func()) clock.Timer {
	st := &simTimer{c: c, kind: armedBy()}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.deadline = c.fake.Now().Add(d)
	st.t = c.fake.AfterFunc(d, fn)
	c.armed = append(c.armed, st)
	c.changed.Broadcast()
	return st
}

func (st *simTimer) Stop() bool {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = slices.DeleteFunc(c.armed, func(x *simTimer) bool { return x == st })
	c.changed.Broadcast()
	return st.t.Stop()
}

// has reports whether a timer of kind is armed; the caller holds c.mu.
func (c *simClock) has(kind timerKind) bool {
	return slices.ContainsFunc(c.armed, func(st *simTimer) bool { return st.kind == kind })
}

// wait blocks until cond, evaluated under c.mu, holds.
func (c *simClock) wait(cond func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !cond() {
		c.changed.Wait()
	}
}

// next returns the earliest armed deadline and the kinds of the timers
// due at it.
func (c *simClock) next() (time.Time, []timerKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var when time.Time
	var due []timerKind
	for _, st := range c.armed {
		switch {
		case len(due) == 0 || st.deadline.Before(when):
			when, due = st.deadline, []timerKind{st.kind}
		case st.deadline.Equal(when):
			due = append(due, st.kind)
		}
	}
	return when, due
}

// advanceTo moves the clock to when, firing every timer due by then.
func (c *simClock) advanceTo(when time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = slices.DeleteFunc(c.armed, func(st *simTimer) bool { return !st.deadline.After(when) })
	c.fake.Advance(when.Sub(c.fake.Now()))
}

// request is one drawn unit of traffic.
type request struct {
	method, path, tenant string
	body                 string
	hostile              bool // must come back a typed 4xx
}

// ringKey is the key the coordinator places the request by (see proxy).
func (q request) ringKey(t *testing.T) string {
	switch q.path {
	case "/run":
		return jobKey(t, q.body)
	case "/kernels":
		sum := sha256.Sum256([]byte(q.body))
		return "kernels|" + hex.EncodeToString(sum[:])
	}
	return q.path
}

// hostileBodies are /kernels bodies the worker must refuse with a typed
// 4xx: not JSON, a negative grid, and an output buffer that is not there.
var hostileBodies = []string{
	`]]]not json`,
	`{"grid":-1,"block":4,"out":"out"}`,
	`{"grid":1,"block":4,"out":"nope","buffers":{"out":[0]},"kernel":{"name":"x"}}`,
}

// trafficMix draws n requests from the serving mix:
//
//	55% cache-hot /run repeats of five cells
//	20% a /run sweep over four benchmarks at four scales
//	10% figure regenerations at scale 64
//	10% one well-formed /kernels submission
//	 5% hostile /kernels bodies
//
// from four tenants.
func trafficMix(t *testing.T, seed int64, n int) []request {
	hot := []string{
		`{"benchmark":"Reduce","device":"GeForce GTX480","toolchain":"cuda","config":{"scale":16}}`,
		`{"benchmark":"Reduce","device":"GeForce GTX480","toolchain":"opencl","config":{"scale":16}}`,
		`{"benchmark":"Scan","device":"GeForce GTX480","toolchain":"cuda","config":{"scale":16}}`,
		`{"benchmark":"Sobel","device":"GeForce GTX480","toolchain":"opencl","config":{"scale":16}}`,
		`{"benchmark":"TranP","device":"GeForce GTX480","toolchain":"cuda","config":{"scale":16}}`,
	}
	sweep := []string{"Reduce", "Scan", "Sobel", "TranP"}
	figures := []string{"fig1", "fig7", "tableV"}
	kernel := string(kernelsBody(t, 1))
	rng := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	for i := range out {
		q := request{method: http.MethodPost, path: "/run", tenant: fmt.Sprintf("tenant-%d", rng.Intn(4))}
		switch p := rng.Float64(); {
		case p < 0.55:
			q.body = hot[rng.Intn(len(hot))]
		case p < 0.75:
			q.body = runBody(sweep[rng.Intn(len(sweep))], []int{8, 16, 32, 64}[rng.Intn(4)])
		case p < 0.85:
			q.method, q.path = http.MethodGet, "/figures/"+figures[rng.Intn(len(figures))]+"?scale=64"
		case p < 0.95:
			q.path, q.body = "/kernels", kernel
		default:
			q.path, q.body, q.hostile = "/kernels", hostileBodies[rng.Intn(len(hostileBodies))], true
		}
		out[i] = q
	}
	return out
}

// fleetRun is one run of the scenario.
type fleetRun struct {
	t       *testing.T
	clk     *simClock
	fleet   *memFleet
	scheds  []*sched.Scheduler
	coord   *Coordinator
	handler http.Handler
	hedging bool

	dead      string // the killed worker, once it is
	rounds    int    // probe rounds so far
	killRound int    // rounds when the victim was killed
}

// scenarioResult is what a run leaves behind.
type scenarioResult struct {
	log     []string // one line per request, in order
	latency []time.Duration
	phases  []faultPhase
}

// faultPhase is the coordinator's state at one point of the run.
type faultPhase struct {
	name    string
	snap    Snapshot
	members []string
}

func newFleetRun(t *testing.T, hedging bool) *fleetRun {
	t.Helper()
	r := &fleetRun{t: t, clk: newSimClock(), fleet: &memFleet{workers: map[string]http.Handler{}, dead: map[string]bool{}}, hedging: hedging}
	var workers []string
	for i := 0; i < 3; i++ {
		url := fmt.Sprintf("http://w%d", i)
		var inj *fault.Injector
		if url == slowWorker {
			inj = fault.New(scenarioSeed, slowSchedule)
		}
		s := sched.New(sched.Options{Workers: 2, Injector: inj, Clock: r.clk})
		t.Cleanup(s.Close)
		r.scheds = append(r.scheds, s)
		r.fleet.workers[strings.TrimPrefix(url, "http://")] = server.New(s).Handler()
		workers = append(workers, url)
	}
	r.coord = New(Config{
		Workers: workers,
		Client:  &http.Client{Transport: r.fleet},
		clock:   r.clk,
		noHedge: !hedging,
	})
	r.coord.Start()
	t.Cleanup(r.coord.Close)
	r.handler = r.coord.Handler()
	r.clk.wait(func() bool { return r.clk.has(probeTick) })
	return r
}

// round checks ring membership after a probe round: every worker stays on
// the ring until the victim has missed probeMisses rounds, and the
// victim goes on exactly that round.
func (r *fleetRun) round() {
	r.rounds++
	if r.dead == "" {
		if n := r.coord.Ring().Len(); n != 3 {
			r.t.Errorf("probe round %d: %d workers on the ring before the kill, want 3", r.rounds, n)
		}
		return
	}
	since := r.rounds - r.killRound
	if on, want := r.coord.Ring().Contains(r.dead), since < probeMisses; on != want {
		r.t.Errorf("probe round %d after the kill: victim on the ring %v, want %v (evicted on round %d)", since, on, want, probeMisses)
	}
}

// settle waits for the fleet to go quiet after a reply: only the probe
// tick is armed and no worker has a job queued or in flight. A cancelled
// attempt unwinds on its worker after the reply, so the poll yields to it
// and reads no clock.
func (r *fleetRun) settle() {
	r.clk.wait(func() bool { return r.clk.has(probeTick) && !r.clk.has(hedgeTimer) && !r.clk.has(stallTimer) })
	r.clk.mu.Lock()
	armed := len(r.clk.armed)
	r.clk.mu.Unlock()
	if armed != 1 {
		r.t.Fatalf("%d timers armed on a quiet fleet, want only the probe tick", armed)
	}
	for _, s := range r.scheds {
		for {
			m := s.Metrics().Snapshot()
			if m.InFlight == 0 && m.QueueDepth == 0 {
				break
			}
			runtime.Gosched()
		}
	}
}

// idleUntil moves the quiet fleet's clock to when, through the probe
// rounds due on the way.
func (r *fleetRun) idleUntil(when time.Time) {
	for {
		next, due := r.clk.next()
		if next.After(when) {
			break
		}
		if !slices.Equal(due, []timerKind{probeTick}) {
			r.t.Fatalf("%v due on a quiet fleet, want only the probe tick", due)
		}
		r.clk.advanceTo(next)
		r.clk.wait(func() bool { return r.clk.has(probeTick) })
		r.round()
	}
	r.clk.advanceTo(when)
}

// do sends one request and moves the clock only while the fleet is
// blocked: while a stall holds the request, the clock jumps to the next
// deadline, which fires a probe round, the hedge or the stall's end. It
// returns the reply, the virtual latency and whether the hedge fired.
func (r *fleetRun) do(q request, shards int) (*httptest.ResponseRecorder, time.Duration, bool) {
	t, clk := r.t, r.clk
	t.Helper()
	start := clk.Now()
	var rec *httptest.ResponseRecorder
	clk.mu.Lock()
	clk.replied = false
	clk.mu.Unlock()
	go func() {
		req := httptest.NewRequest(q.method, q.path, strings.NewReader(q.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", q.tenant)
		w := httptest.NewRecorder()
		r.handler.ServeHTTP(w, req)
		clk.mu.Lock()
		rec, clk.replied = w, true
		clk.changed.Broadcast()
		clk.mu.Unlock()
	}()
	hedged := false
	for {
		// The fleet is blocked once a stall holds the request (until the
		// hedge fires, after which only its reply can end the request)
		// and the probe loop is between rounds.
		clk.wait(func() bool { return clk.has(probeTick) && (clk.replied || !hedged && clk.has(stallTimer)) })
		clk.mu.Lock()
		done, hedgeArmed := clk.replied, clk.has(hedgeTimer)
		clk.mu.Unlock()
		if done {
			break
		}
		if r.hedging && shards > 1 && !hedged && !hedgeArmed {
			t.Errorf("%s %s: the slow worker holds the request and no hedge timer is armed", q.method, q.path)
		}
		next, due := clk.next()
		if slices.Contains(due, hedgeTimer) && slices.Contains(due, stallTimer) {
			t.Fatalf("%s %s: the hedge and a stall are due at once; their race has no fixed winner", q.method, q.path)
		}
		for _, k := range due {
			if k != probeTick && k != hedgeTimer && k != stallTimer {
				t.Fatalf("a timer armed by %s; the scenario knows probe ticks, hedges and stalls", k)
			}
		}
		clk.advanceTo(next)
		hedged = hedged || slices.Contains(due, hedgeTimer)
		if slices.Contains(due, probeTick) {
			clk.wait(func() bool { return clk.has(probeTick) })
			r.round()
		}
	}
	latency := clk.Now().Sub(start)
	r.settle()
	return rec, latency, hedged
}

// expectedCost walks a request's preference list the way forward does and
// returns the hedges and failovers the request must cost: the primary
// attempt moves past the dead worker and stops at the first live one, and
// a fired hedge continues down the list the same way.
func expectedCost(prefs []string, dead string, hedged bool) (hedges, failovers uint64) {
	next := 0
	walk := func() {
		for moved := false; next < len(prefs); moved = true {
			shard := prefs[next]
			next++
			if moved {
				failovers++
			}
			if shard != dead {
				return
			}
		}
	}
	walk()
	if hedged {
		hedges++
		walk()
	}
	return hedges, failovers
}

func jobKey(t *testing.T, body string) string {
	t.Helper()
	var j sched.Job
	if err := json.Unmarshal([]byte(body), &j); err != nil {
		t.Fatal(err)
	}
	return j.Key()
}

// runFaultScenario runs the scenario once. Every reply must be a 200, but
// a hostile body's, which must be a typed 4xx; the victim must leave the
// ring on exactly the probeMisses-th probe round after its death; and
// every request's hedges, hedge wins and failovers must be the ones
// expectedCost walks from the ring.
func runFaultScenario(t *testing.T, hedging bool) scenarioResult {
	r := newFleetRun(t, hedging)
	var res scenarioResult
	phase := func(name string) {
		res.phases = append(res.phases, faultPhase{name, r.coord.Metrics(), r.coord.Ring().Members()})
	}
	var hedges, failovers uint64
	for i, q := range trafficMix(t, scenarioSeed, scenarioRequests) {
		r.idleUntil(epoch.Add(time.Duration(i) * scenarioGap))
		if i == killAt {
			phase("before the kill")
			r.fleet.kill(victim)
			r.dead, r.killRound = victim, r.rounds
		}
		prefs := r.coord.Ring().LookupN(q.ringKey(t), 3)
		before := r.coord.Metrics()
		rec, latency, hedged := r.do(q, len(prefs))
		after := r.coord.Metrics()

		status := rec.Code
		switch {
		case q.hostile && (status < 400 || status >= 500 || !typedRefusal(rec.Body.Bytes())):
			t.Errorf("request %d, hostile %s: %d %s, want a typed 4xx", i, q.path, status, rec.Body.Bytes())
		case !q.hostile && status != http.StatusOK:
			t.Errorf("request %d, %s %s: %d %s, want 200", i, q.method, q.path, status, rec.Body.Bytes())
		}
		h, f := expectedCost(prefs, r.dead, hedged)
		hedges += h
		failovers += f
		if got := after.Hedges - before.Hedges; got != h {
			t.Errorf("request %d, %s %s: %d hedges, want %d", i, q.method, q.path, got, h)
		}
		if got := after.HedgeWins - before.HedgeWins; got != h {
			t.Errorf("request %d, %s %s: %d hedge wins, want %d: a hedge beats a stalled primary", i, q.method, q.path, got, h)
		}
		if got := after.Failovers - before.Failovers; got != f {
			t.Errorf("request %d, %s %s: %d failovers, want %d", i, q.method, q.path, got, f)
		}
		res.log = append(res.log, fmt.Sprintf("%s %s %d shard=%s cache=%s %v",
			q.method, q.path, status, rec.Header().Get("X-Shard"), rec.Header().Get("X-Cache"), latency))
		res.latency = append(res.latency, latency)
	}
	phase("end")
	if since := r.rounds - r.killRound; since < probeMisses {
		t.Errorf("the run ends %d probe rounds after the kill; the eviction on round %d is never seen", since, probeMisses)
	}
	if r.coord.Ring().Contains(victim) {
		t.Errorf("the killed worker is still on the ring %d probe rounds after its death", r.rounds-r.killRound)
	}
	if hedging && hedges == 0 {
		t.Error("no request was hedged; the scenario tests nothing")
	}
	if failovers == 0 {
		t.Error("no request failed over; the scenario tests nothing")
	}
	t.Logf("hedging %v: %d requests, %d probe rounds, %d hedges, %d failovers, p50 %v p99 %v p999 %v",
		hedging, len(res.log), r.rounds, hedges, failovers,
		quantile(res.latency, 0.50), quantile(res.latency, 0.99), quantile(res.latency, 0.999))
	return res
}

// quantile is the q-quantile of the latencies, indexed as the hedge
// delay's window is (quantileOf).
func quantile(latencies []time.Duration, q float64) time.Duration {
	s := slices.Clone(latencies)
	slices.Sort(s)
	d, _ := quantileOf(s, q)
	return d
}

// TestClusterFaultTolerance is the serving SLO: the scenario with hedging
// as it ships and with it off. Both runs' virtual p50, p99 and p999 are
// pinned, and hedging must lower the p99, or it is not worth its code.
func TestClusterFaultTolerance(t *testing.T) {
	want := map[bool][3]time.Duration{ // p50, p99, p999
		true:  {0, 20 * time.Millisecond, 20 * time.Millisecond},
		false: {0, 250 * time.Millisecond, 500 * time.Millisecond},
	}
	var p99 [2]time.Duration
	for i, hedging := range []bool{true, false} {
		lat := runFaultScenario(t, hedging).latency
		got := [3]time.Duration{quantile(lat, 0.50), quantile(lat, 0.99), quantile(lat, 0.999)}
		if got != want[hedging] {
			t.Errorf("hedging %v: virtual p50, p99, p999 = %v, want %v", hedging, got, want[hedging])
		}
		p99[i] = got[1]
	}
	if p99[0] >= p99[1] {
		t.Errorf("virtual p99 %v with hedging, %v without: hedging does not pay for itself", p99[0], p99[1])
	}
}

// TestClusterFaultToleranceReplays: the scenario is a replay, not a
// timing. Two runs give the same line for every request (status, shard,
// cache outcome and virtual latency) and the same metrics and ring at the
// kill and at the end.
func TestClusterFaultToleranceReplays(t *testing.T) {
	first, second := runFaultScenario(t, true), runFaultScenario(t, true)
	if !slices.Equal(first.log, second.log) {
		for i := range min(len(first.log), len(second.log)) {
			if first.log[i] != second.log[i] {
				t.Fatalf("request %d: %q, then %q", i, first.log[i], second.log[i])
			}
		}
		t.Fatalf("%d requests, then %d", len(first.log), len(second.log))
	}
	for i := range first.phases {
		a, b := first.phases[i], second.phases[i]
		if !reflect.DeepEqual(a.snap, b.snap) {
			t.Errorf("%s: metrics differ between runs:\n%+v\n%+v", a.name, a.snap, b.snap)
		}
		if !reflect.DeepEqual(a.members, b.members) {
			t.Errorf("%s: ring %v, then %v", a.name, a.members, b.members)
		}
	}
}
