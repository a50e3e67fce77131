package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gpucmp/internal/clock"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// workerState is how a memFleet worker answers.
type workerState int

const (
	healthy workerState = iota
	// slow holds every /run request until its context is cancelled; it
	// still answers readiness probes, so it stays on the ring.
	slow
	// dead refuses every connection.
	dead
)

// memFleet is the Config.Client transport of the fault-tolerance scenario:
// in-process worker handlers under fixed names, so the ring is the same in
// every run, and no listener or socket between them and the coordinator.
type memFleet struct {
	workers map[string]http.Handler // by host
	held    chan struct{}           // a slow worker announces each request it holds

	mu    sync.Mutex
	state map[string]workerState
}

func (f *memFleet) set(host string, st workerState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.state[host] = st
}

func (f *memFleet) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	st := f.state[req.URL.Host]
	f.mu.Unlock()
	ctx := req.Context()
	switch {
	case st == dead:
		return nil, errors.New("mem fleet: connection refused")
	case st == slow && req.URL.Path == "/run":
		select {
		case f.held <- struct{}{}:
		case <-ctx.Done():
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	in := req.Clone(ctx)
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	f.workers[req.URL.Host].ServeHTTP(rec, in)
	return rec.Result(), nil
}

// faultScenario is one run of the fault-tolerance scenario: three
// in-process workers behind a coordinator on a Fake clock. The test
// issues every request itself, one at a time, and moves the clock only to
// fire a hedge or a probe round, so each run takes the same path.
type faultScenario struct {
	t        *testing.T
	clk      *clock.Fake
	fleet    *memFleet
	coord    *Coordinator
	handler  http.Handler
	cfg      Config
	nextTick time.Time
}

// faultPhase is what one phase of the scenario leaves behind.
type faultPhase struct {
	name    string
	snap    Snapshot
	members []string
}

const slowWorker = "http://w0"

func newFaultScenario(t *testing.T) *faultScenario {
	t.Helper()
	fleet := &memFleet{workers: map[string]http.Handler{}, held: make(chan struct{}), state: map[string]workerState{}}
	var workers []string
	for i := 0; i < 3; i++ {
		s := sched.New(sched.Options{Workers: 2})
		t.Cleanup(s.Close)
		host := fmt.Sprintf("w%d", i)
		fleet.workers[host] = server.New(s).Handler()
		workers = append(workers, "http://"+host)
	}
	fleet.set(strings.TrimPrefix(slowWorker, "http://"), slow)
	sc := &faultScenario{t: t, clk: clock.NewFake(time.Now()), fleet: fleet}
	sc.cfg = Config{
		Workers:       workers,
		HedgeMinDelay: 20 * time.Millisecond,
		HedgeMaxDelay: 60 * time.Millisecond,
		// Probe rounds come only from tick; the hedges a phase fires
		// move the clock far less than this.
		ProbeInterval: time.Minute,
		Client:        &http.Client{Transport: fleet},
		clock:         sc.clk,
	}
	sc.coord = New(sc.cfg)
	sc.coord.Start()
	t.Cleanup(sc.coord.Close)
	sc.clk.WaitArmed(1) // the first probe tick
	sc.nextTick = sc.clk.Now().Add(sc.cfg.ProbeInterval)
	sc.handler = sc.coord.Handler()
	return sc
}

// run sends one /run request and waits for its reply, which must be a 200.
// When the slow worker holds the request, run fires the hedge timer.
func (sc *faultScenario) run(body string) {
	t := sc.t
	t.Helper()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		sc.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		done <- rec
	}()
	var rec *httptest.ResponseRecorder
	select {
	case <-sc.fleet.held:
		sc.clk.WaitArmed(2) // the probe tick and this request's hedge timer
		sc.clk.Advance(sc.cfg.HedgeMaxDelay)
		rec = <-done
	case rec = <-done:
	}
	if rec.Code != http.StatusOK {
		t.Errorf("%s: status %d: %s", body, rec.Code, rec.Body.Bytes())
	}
}

// tick moves the clock to the next probe tick and waits for the probe
// loop to re-arm, which it does only once the round has reconciled the
// ring.
func (sc *faultScenario) tick() {
	sc.clk.Advance(sc.nextTick.Sub(sc.clk.Now()))
	sc.clk.WaitArmed(1)
	sc.nextTick = sc.clk.Now().Add(sc.cfg.ProbeInterval)
}

// expectedCost walks a request's preference list the way forward does and
// returns the hedges and failovers the request must cost: the primary
// attempt moves past the dead worker and stops at the first live one; if
// that is the slow worker, the hedge attempt continues down the list.
func expectedCost(prefs []string, deadWorker string) (hedges, failovers uint64) {
	next := 0
	held := func() bool {
		for moved := false; next < len(prefs); moved = true {
			shard := prefs[next]
			next++
			if moved {
				failovers++
			}
			if shard != deadWorker {
				return shard == slowWorker
			}
		}
		return false
	}
	if held() {
		hedges++
		held()
	}
	return hedges, failovers
}

// phaseBodies are the /run bodies of one phase: four benchmarks at three
// scales, distinct from every other phase's.
func phaseBodies(phase int) []string {
	var out []string
	for _, scale := range []int{256, 264, 272} {
		for _, b := range []string{"Reduce", "Scan", "Sobel", "TranP"} {
			out = append(out, runBody(b, scale+24*phase))
		}
	}
	return out
}

func jobKey(t *testing.T, body string) string {
	t.Helper()
	var j sched.Job
	if err := json.Unmarshal([]byte(body), &j); err != nil {
		t.Fatal(err)
	}
	return j.Key()
}

// runFaultScenario is the headline chaos scenario: a fleet with one
// pathologically slow worker, and one healthy worker killed mid-run with
// zero notice, must answer every request 200. Hedging beats the slow
// worker, failover absorbs the dead one, and the probe loop evicts it on
// exactly the probeMisses-th round after it died. Every hedge, hedge win
// and failover is predicted from the ring and asserted as a count.
func runFaultScenario(t *testing.T) []faultPhase {
	sc := newFaultScenario(t)
	var phases []faultPhase
	var last Snapshot
	phase := func(name string, bodies []string, deadWorker string) {
		t.Helper()
		var hedges, failovers uint64
		for _, body := range bodies {
			h, f := expectedCost(sc.coord.Ring().LookupN(jobKey(t, body), 3), deadWorker)
			hedges += h
			failovers += f
			sc.run(body)
		}
		snap := sc.coord.Metrics()
		t.Logf("%s: %d requests, %d hedges, %d failovers", name, len(bodies), hedges, failovers)
		if hedges == 0 {
			t.Fatalf("%s: no request routes through the slow worker; the scenario tests nothing", name)
		}
		if got := snap.Hedges - last.Hedges; got != hedges {
			t.Errorf("%s: %d hedges, want %d", name, got, hedges)
		}
		if got := snap.HedgeWins - last.HedgeWins; got != hedges {
			t.Errorf("%s: %d hedge wins, want %d: every hedge beats a held request", name, got, hedges)
		}
		if got := snap.Failovers - last.Failovers; got != failovers {
			t.Errorf("%s: %d failovers, want %d", name, got, failovers)
		}
		last = snap
		phases = append(phases, faultPhase{name, snap, sc.coord.Ring().Members()})
	}
	onRing := func(when string, want ...string) {
		t.Helper()
		if got := sc.coord.Ring().Members(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ring = %v, want %v", when, got, want)
		}
	}

	phase("slow-shard", phaseBodies(0), "")
	sc.tick()
	onRing("a probe round after the slow-shard phase", sc.cfg.Workers...)

	// The victim is the healthy worker that owns the dead-worker phase's
	// first key not owned by the slow worker.
	var victim string
	deadBodies := phaseBodies(1)
	for _, body := range deadBodies {
		if owner := sc.coord.Ring().LookupN(jobKey(t, body), 1)[0]; owner != slowWorker {
			victim = owner
			break
		}
	}
	if victim == "" {
		t.Fatal("the slow worker owns every dead-worker key; the scenario has no victim")
	}
	var survivors []string
	for _, w := range sc.cfg.Workers {
		if w != victim {
			survivors = append(survivors, w)
		}
	}
	sc.fleet.set(strings.TrimPrefix(victim, "http://"), dead)
	phase("dead-worker", deadBodies, victim)
	if last.Failovers == 0 {
		t.Fatal("dead-worker: no failover; the scenario tests nothing")
	}

	for round := 1; round < probeMisses; round++ {
		sc.tick()
		onRing(fmt.Sprintf("probe round %d after the kill", round), sc.cfg.Workers...)
	}
	sc.tick()
	onRing(fmt.Sprintf("probe round %d after the kill", probeMisses), survivors...)
	phases = append(phases, faultPhase{"eviction", sc.coord.Metrics(), sc.coord.Ring().Members()})

	phase("post-eviction", phaseBodies(2), "")
	return phases
}

// TestClusterFaultTolerance runs the fault-tolerance scenario once.
func TestClusterFaultTolerance(t *testing.T) {
	runFaultScenario(t)
}

// TestClusterFaultToleranceReplays: the scenario is a replay, not a
// timing. Two runs leave identical metrics and ring membership after
// every phase.
func TestClusterFaultToleranceReplays(t *testing.T) {
	first, second := runFaultScenario(t), runFaultScenario(t)
	if len(first) != len(second) {
		t.Fatalf("%d phases, then %d", len(first), len(second))
	}
	for i := range first {
		a, b := first[i], second[i]
		if !reflect.DeepEqual(a.snap, b.snap) {
			t.Errorf("%s: metrics differ between runs:\n%+v\n%+v", a.name, a.snap, b.snap)
		}
		if !reflect.DeepEqual(a.members, b.members) {
			t.Errorf("%s: ring %v, then %v", a.name, a.members, b.members)
		}
	}
}
