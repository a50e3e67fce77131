// Package clock is the one time source of the serving and recovery layers:
// the scheduler and the coordinator read the time and arm timers through a
// Clock instead of the time package, so their tests can drive time by hand
// (Fake) instead of sleeping and hoping. Production code uses Real, the
// wall clock.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock reads the time and arms timers.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f on its own goroutine once d has passed, as
	// time.AfterFunc does.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is an armed AfterFunc callback.
type Timer interface {
	// Stop disarms the timer and reports whether it was still armed: false
	// means the callback has been started (or the timer was stopped
	// before).
	Stop() bool
}

// Real is the wall clock. Its zero value is ready to use.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// AfterFunc returns time.AfterFunc(d, f).
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Fake is a manual clock: time stands still until Advance moves it, and a
// timer fires only when Advance passes its deadline. Safe for concurrent
// use.
type Fake struct {
	mu     sync.Mutex
	armed  sync.Cond // broadcast whenever a timer is armed
	now    time.Time
	timers []*fakeTimer // armed, in arming order
}

// NewFake returns a Fake reading start.
func NewFake(start time.Time) *Fake {
	f := &Fake{now: start}
	f.armed.L = &f.mu
	return f
}

type fakeTimer struct {
	f        *Fake
	fn       func()
	deadline time.Time
}

// Now returns the fake time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// AfterFunc arms fn to run d from now; d <= 0 starts it at once, as
// time.AfterFunc does.
func (f *Fake) AfterFunc(d time.Duration, fn func()) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{f: f, fn: fn, deadline: f.now.Add(d)}
	if d <= 0 {
		go fn()
		return t
	}
	f.timers = append(f.timers, t)
	f.armed.Broadcast()
	return t
}

func (t *fakeTimer) Stop() bool {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, x := range f.timers {
		if x == t {
			f.timers = append(f.timers[:i], f.timers[i+1:]...)
			return true
		}
	}
	return false
}

// Advance moves the clock forward by d, then starts the callback of every
// timer whose deadline has been reached, each on its own goroutine, in
// deadline order (arming order between equal deadlines). A callback
// already reads the new time, and may block.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	var due, kept []*fakeTimer
	for _, t := range f.timers {
		if t.deadline.After(f.now) {
			kept = append(kept, t)
		} else {
			due = append(due, t)
		}
	}
	f.timers = kept
	sort.SliceStable(due, func(i, j int) bool { return due[i].deadline.Before(due[j].deadline) })
	for _, t := range due {
		go t.fn()
	}
}

// WaitArmed blocks until at least n timers are armed: the way a test learns
// that the code under test has reached the wait it is about to release.
func (f *Fake) WaitArmed(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.timers) < n {
		f.armed.Wait()
	}
}
