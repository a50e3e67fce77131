// Package clock is the one time source of the serving and recovery layers:
// the scheduler, the coordinator and co-execution read the time and wait
// through a Clock instead of the time package, so their tests can drive
// time by hand (Fake) instead of sleeping and hoping. Production code uses
// Real, the wall clock.
package clock

import (
	"sort"
	"sync"
	"time"
)

// Clock reads the time and arms timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a one-shot timer: C delivers one time value when it fires, and
// Stop disarms it, reporting whether it was still armed.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
}

// Real is the wall clock. Its zero value is ready to use.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// NewTimer returns a time.Timer as a Timer.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time { return r.t.C }
func (r realTimer) Stop() bool          { return r.t.Stop() }

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
	c        chan time.Time
	deadline time.Time
}

// Now returns the fake time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer arms a timer d from now; d <= 0 fires at once, as time.NewTimer
// does.
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{f: f, c: make(chan time.Time, 1), deadline: f.now.Add(d)}
	if d <= 0 {
		t.c <- f.now
		return t
	}
	f.timers = append(f.timers, t)
	f.armed.Broadcast()
	return t
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }

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

// Advance moves the clock forward by d, then fires every timer whose
// deadline has been reached, in deadline order (arming order between
// equal deadlines), each delivering its own deadline. A goroutine woken
// by one of them already reads the new time.
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
		t.c <- t.deadline // never blocks: a timer fires at most once into its one-slot buffer
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
