package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlight drives one key of a Flight through scripted joins, departures
// and finishes. After each step it checks what the step returned and
// whether the first call's context is still live; at the end, every caller
// still on a finished call must get its result from Wait.
func TestFlight(t *testing.T) {
	type step struct {
		do   string // join, leave, wait (with a cancelled context) or finish (the latest call)
		who  int    // leave, wait: the join whose caller departs
		want bool   // join: the caller leads a new call; leave: the caller abandons the call
		live bool   // afterwards, the first call's context is not cancelled
	}
	// A caller whose context is already dead gets the context's error even
	// from a finished call. A Wait that picked between the two at random
	// would pass all 64 of these waits with odds of 2^-64.
	deadWaits := []step{{do: "join", want: true, live: true}}
	for range 64 {
		deadWaits = append(deadWaits, step{do: "join", live: true})
	}
	deadWaits = append(deadWaits, step{do: "finish"})
	for who := 1; who <= 64; who++ {
		deadWaits = append(deadWaits, step{do: "wait", who: who})
	}
	for _, tc := range []struct {
		name     string
		steps    []step
		abandons uint64
		waiters  int // on the key once the steps are done
	}{
		{"leader and joiner", []step{
			{do: "join", want: true, live: true},
			{do: "join", live: true},
			{do: "finish"},
		}, 0, 0},
		{"a leave that is not the last", []step{
			{do: "join", want: true, live: true},
			{do: "join", live: true},
			{do: "leave", who: 0, live: true},
			{do: "join", live: true},
			{do: "wait", who: 2, live: true},
		}, 0, 1},
		{"the last leave abandons and unlinks", []step{
			{do: "join", want: true, live: true},
			{do: "join", live: true},
			{do: "wait", who: 1, live: true},
			{do: "leave", who: 0, want: true},
			{do: "join", want: true}, // a fresh call
			{do: "join"},
			{do: "finish"},
		}, 1, 0},
		{"a leave after finish abandons nothing", []step{
			{do: "join", want: true, live: true},
			{do: "join", live: true},
			{do: "finish"},
			{do: "leave", who: 1},
			{do: "leave", who: 0},
		}, 0, 0},
		{"a dead context waits for nothing, even on a finished call", deadWaits, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu       sync.Mutex
				abandons atomic.Uint64
				calls    []*Call[int]
				departed = map[int]bool{}
				results  = map[*Call[int]]int{}
			)
			f := NewFlight[int](&mu, &abandons)
			for i, st := range tc.steps {
				switch st.do {
				case "join":
					mu.Lock()
					c, leader := f.Join("k")
					mu.Unlock()
					calls = append(calls, c)
					if leader != st.want {
						t.Errorf("step %d: join led = %v, want %v", i, leader, st.want)
					}
				case "leave":
					if got := f.Leave(calls[st.who]); got != st.want {
						t.Errorf("step %d: leave abandoned = %v, want %v", i, got, st.want)
					}
					departed[st.who] = true
				case "wait":
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if _, err := f.Wait(ctx, calls[st.who]); !errors.Is(err, context.Canceled) {
						t.Errorf("step %d: wait on a cancelled context = %v, want context.Canceled", i, err)
					}
					departed[st.who] = true
				case "finish":
					c := calls[len(calls)-1]
					mu.Lock()
					f.Finish(c, i, nil)
					mu.Unlock()
					results[c] = i
				}
				if live := calls[0].Context().Err() == nil; live != st.live {
					t.Errorf("step %d (%s): first call live = %v, want %v", i, st.do, live, st.live)
				}
			}
			var wg sync.WaitGroup
			for k, c := range calls {
				want, finished := results[c]
				if departed[k] || !finished {
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, err := f.Wait(context.Background(), c); got != want || err != nil {
						t.Errorf("caller %d: Wait = %d, %v, want %d, nil", k, got, err, want)
					}
				}()
			}
			wg.Wait()
			if n := f.Waiters("k"); n != tc.waiters {
				t.Errorf("Waiters = %d, want %d", n, tc.waiters)
			}
			if n := abandons.Load(); n != tc.abandons {
				t.Errorf("abandons = %d, want %d", n, tc.abandons)
			}
		})
	}
}
