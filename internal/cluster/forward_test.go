package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpucmp/internal/clock"
)

// shardStub is the Config.Client transport of the forwarding tests: every
// request goes to the function, with the host of the shard it was sent
// to, on the goroutine that makes the call.
type shardStub func(host string, req *http.Request) (*http.Response, error)

func (f shardStub) RoundTrip(req *http.Request) (*http.Response, error) {
	return f("http://"+req.URL.Host, req)
}

// answerBody is what a stub shard replies: large enough that a replay cut
// short would show.
func answerBody(shard string) string {
	return `{"shard":"` + shard + `","pad":"` + strings.Repeat("x", 4096) + `"}`
}

func answer(shard string, req *http.Request) *http.Response {
	body := answerBody(shard)
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// recordingClock is a Fake that keeps every timer it arms, so a test can
// tell whether the coordinator left one armed.
type recordingClock struct {
	*clock.Fake
	mu     sync.Mutex
	timers []clock.Timer
}

func (r *recordingClock) AfterFunc(d time.Duration, f func()) clock.Timer {
	t := r.Fake.AfterFunc(d, f)
	r.mu.Lock()
	r.timers = append(r.timers, t)
	r.mu.Unlock()
	return t
}

// disarm stops every timer the clock armed and returns how many of them
// were still armed.
func (r *recordingClock) disarm() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.timers {
		if t.Stop() {
			n++
		}
	}
	return n
}

// stubCoordinator is a coordinator over the stub transport rt, on a
// recording Fake clock that only the test moves, with no probe loop.
func stubCoordinator(t *testing.T, workers []string, rt shardStub) (*Coordinator, *recordingClock) {
	t.Helper()
	clk := &recordingClock{Fake: clock.NewFake(epoch)}
	c := New(Config{
		Workers: workers,
		Client:  &http.Client{Transport: rt},
		clock:   clk,
	})
	return c, clk
}

// serveRun sends one /run request straight into the coordinator's
// handler, on the calling goroutine.
func serveRun(ctx context.Context, c *Coordinator, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)).WithContext(ctx)
	c.Handler().ServeHTTP(rec, req)
	return rec
}

// await receives from ch, or fails the test after a generous deadline
// of wall-clock time (see waitFor).
func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestUnhedgedAttemptRunsOnCallerGoroutine pins where the upstream call
// is made: a request that is not hedged reaches the worker transport on
// the goroutine that called ServeHTTP, not on one the coordinator
// started for it. While a two-worker request's primary is held, its hedge
// is an armed timer, and no goroutine forward started waits on it.
func TestUnhedgedAttemptRunsOnCallerGoroutine(t *testing.T) {
	for _, workers := range [][]string{{"http://a"}, {"http://a", "http://b"}} {
		var stacks []string
		c, clk := stubCoordinator(t, workers, func(shard string, req *http.Request) (*http.Response, error) {
			buf := make([]byte, 64<<10)
			stacks = append(stacks, string(buf[:runtime.Stack(buf, false)]))
			return answer(shard, req), nil
		})
		rec := serveRun(context.Background(), c, runBody("Reduce", 32))
		if rec.Code != http.StatusOK {
			t.Fatalf("%d workers: status %d: %s", len(workers), rec.Code, rec.Body.Bytes())
		}
		if len(stacks) != 1 {
			t.Fatalf("%d workers: %d upstream calls, want 1", len(workers), len(stacks))
		}
		if strings.Contains(stacks[0], "created by gpucmp/internal/cluster.(*Coordinator)") {
			t.Errorf("%d workers: the upstream call ran on a goroutine the coordinator started:\n%s", len(workers), stacks[0])
		}
		if n := clk.disarm(); n != 0 {
			t.Errorf("%d workers: %d timers left armed after the reply", len(workers), n)
		}
	}

	held, release := make(chan struct{}, 1), make(chan struct{})
	c, clk := stubCoordinator(t, []string{"http://a", "http://b"}, func(shard string, req *http.Request) (*http.Response, error) {
		held <- struct{}{}
		<-release
		return answer(shard, req), nil
	})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- serveRun(context.Background(), c, runBody("Reduce", 32)) }()
	await(t, "the primary attempt", held)
	clk.WaitArmed(1) // the hedge timer
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	close(release)
	if rec := await(t, "the reply", done); rec.Code != http.StatusOK {
		t.Fatalf("held primary: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "created by gpucmp/internal/cluster.(*Coordinator).forward") {
			t.Errorf("forward started a goroutine while its primary was held:\n%s", g)
		}
	}
}

// TestHedgeRace runs both outcomes of the race between the primary
// attempt and its hedge on a Fake clock.
func TestHedgeRace(t *testing.T) {
	workers := []string{"http://a", "http://b"}
	body := runBody("Reduce", 32)
	prefs := New(Config{Workers: workers}).Ring().LookupN(jobKey(t, body), 2)
	primary, second := prefs[0], prefs[1]

	// The primary shard holds its request until the request's context is
	// cancelled; once the clock passes the hedge delay, the hedge at the
	// second shard answers, and its win cancels the primary.
	t.Run("hedge wins", func(t *testing.T) {
		held := make(chan struct{}, 1)
		var cancelled atomic.Bool
		c, clk := stubCoordinator(t, workers, func(shard string, req *http.Request) (*http.Response, error) {
			if shard != primary {
				return answer(shard, req), nil
			}
			held <- struct{}{}
			<-req.Context().Done()
			cancelled.Store(true)
			return nil, req.Context().Err()
		})
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- serveRun(context.Background(), c, body) }()
		await(t, "the primary attempt", held)
		clk.WaitArmed(1)
		clk.Advance(hedgeMaxDelay)
		rec := await(t, "the reply", done)
		if rec.Code != http.StatusOK || rec.Body.String() != answerBody(second) {
			t.Fatalf("status %d, body %.60q: want the second shard's reply", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Shard"); got != second {
			t.Errorf("X-Shard %q, want %q", got, second)
		}
		if snap := c.Metrics(); snap.Hedges != 1 || snap.HedgeWins != 1 {
			t.Errorf("hedges %d, hedge wins %d: want 1 and 1", snap.Hedges, snap.HedgeWins)
		}
		if !cancelled.Load() {
			t.Error("the primary attempt never saw its request cancelled")
		}
	})

	// The primary answers at once: no hedge, and the hedge timer is
	// stopped rather than left armed.
	t.Run("primary wins", func(t *testing.T) {
		c, clk := stubCoordinator(t, workers, func(shard string, req *http.Request) (*http.Response, error) {
			return answer(shard, req), nil
		})
		rec := serveRun(context.Background(), c, body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Shard") != primary {
			t.Fatalf("status %d from %q: want 200 from %q", rec.Code, rec.Header().Get("X-Shard"), primary)
		}
		if n := clk.disarm(); n != 0 {
			t.Errorf("%d timers left armed after the primary answered", n)
		}
		if snap := c.Metrics(); snap.Hedges != 0 || snap.HedgeWins != 0 {
			t.Errorf("hedges %d, hedge wins %d: want none", snap.Hedges, snap.HedgeWins)
		}
	})
}

// TestDedupAbandonment covers both ways a waiter leaves a shared upstream
// call: a leader whose client leaves still finishes the call for the
// joiner waiting on it, and the last waiter out cancels the upstream.
func TestDedupAbandonment(t *testing.T) {
	body := runBody("Scan", 48)
	sfKey := jobKey(t, body) // a /run call is shared under its ring key

	// gated is a one-shard coordinator whose shard holds each /run request
	// until the gate opens or the request is cancelled.
	type gated struct {
		c         *Coordinator
		arrived   chan struct{}
		gate      chan struct{}
		cancelled chan struct{}
		calls     atomic.Int32
	}
	newGated := func(t *testing.T) *gated {
		g := &gated{arrived: make(chan struct{}, 1), gate: make(chan struct{}), cancelled: make(chan struct{}, 1)}
		g.c, _ = stubCoordinator(t, []string{"http://a"}, func(shard string, req *http.Request) (*http.Response, error) {
			g.calls.Add(1)
			g.arrived <- struct{}{}
			select {
			case <-g.gate:
				return answer(shard, req), nil
			case <-req.Context().Done():
				g.cancelled <- struct{}{}
				return nil, req.Context().Err()
			}
		})
		return g
	}
	waiters := func(c *Coordinator) int { return c.flight.Waiters(sfKey) }

	t.Run("leader leaves", func(t *testing.T) {
		g := newGated(t)
		lctx, leave := context.WithCancel(context.Background())
		defer leave()
		leader, joiner := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
		go func() { leader <- serveRun(lctx, g.c, body) }()
		await(t, "the upstream call", g.arrived)
		go func() { joiner <- serveRun(context.Background(), g.c, body) }()
		waitFor(t, "the joiner to join", func() bool { return waiters(g.c) == 2 })
		leave()
		waitFor(t, "the leader to leave", func() bool { return waiters(g.c) == 1 })
		close(g.gate)

		rec := await(t, "the joiner's reply", joiner)
		if rec.Code != http.StatusOK || rec.Body.String() != answerBody("http://a") {
			t.Errorf("joiner: status %d, %d body bytes: want the whole reply", rec.Code, rec.Body.Len())
		}
		if rec := await(t, "the leader's return", leader); rec.Code == http.StatusOK {
			t.Error("the leader's departed client was answered 200")
		}
		select {
		case <-g.cancelled:
			t.Error("the upstream call was cancelled while a joiner waited on it")
		default:
		}
		if n := g.calls.Load(); n != 1 {
			t.Errorf("%d upstream calls, want 1", n)
		}
		if snap := g.c.Metrics(); snap.DedupJoined != 1 {
			t.Errorf("dedup_joined %d, want 1", snap.DedupJoined)
		}
		if n := waiters(g.c); n != 0 {
			t.Errorf("a call is left in flight with %d waiters", n)
		}
	})

	t.Run("only waiter leaves", func(t *testing.T) {
		g := newGated(t)
		defer close(g.gate)
		lctx, leave := context.WithCancel(context.Background())
		leader := make(chan *httptest.ResponseRecorder, 1)
		go func() { leader <- serveRun(lctx, g.c, body) }()
		await(t, "the upstream call", g.arrived)
		leave()
		await(t, "the worker transport to see its request cancelled", g.cancelled)
		if rec := await(t, "the leader's return", leader); rec.Code == http.StatusOK {
			t.Error("the departed client was answered 200")
		}
		if n := waiters(g.c); n != 0 {
			t.Errorf("a call is left in flight with %d waiters after the only waiter left", n)
		}
	})
}
