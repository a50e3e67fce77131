package clock

import (
	"testing"
	"time"
)

var epoch = time.Date(2011, 9, 13, 0, 0, 0, 0, time.UTC)

// arm arms a callback d from now on c that sends the time it reads to the
// returned channel.
func arm(c Clock, d time.Duration) (Timer, <-chan time.Time) {
	ch := make(chan time.Time, 1)
	return c.AfterFunc(d, func() { ch <- c.Now() }), ch
}

// fired reports whether ch has a value within a second, and the value.
func fired(ch <-chan time.Time) (time.Time, bool) {
	select {
	case v := <-ch:
		return v, true
	case <-time.After(time.Second):
		return time.Time{}, false
	}
}

// idle reports whether ch stays empty: a callback that has not been
// started.
func idle(ch <-chan time.Time) bool {
	select {
	case <-ch:
		return false
	default:
		return true
	}
}

// TestFakeFiresInDeadlineOrder: callbacks armed out of order start one by
// one as Advance reaches each deadline, and read the advanced time.
func TestFakeFiresInDeadlineOrder(t *testing.T) {
	f := NewFake(epoch)
	chans := map[time.Duration]<-chan time.Time{}
	for _, d := range []time.Duration{30, 10, 20} {
		_, chans[d*time.Millisecond] = arm(f, d*time.Millisecond)
	}
	for step := time.Duration(1); step <= 3; step++ {
		f.Advance(10 * time.Millisecond)
		due := step * 10 * time.Millisecond
		v, ok := fired(chans[due])
		if !ok {
			t.Fatalf("step %d: the %v callback did not run", step, due)
		}
		if v != epoch.Add(due) {
			t.Errorf("the %v callback read %v, want %v", due, v, epoch.Add(due))
		}
		delete(chans, due)
		for d, ch := range chans {
			if !idle(ch) {
				t.Fatalf("step %d: the %v callback ran early", step, d)
			}
		}
	}
}

// TestFakeAdvancePastSeveralFiresAll: one Advance past several deadlines
// starts every one of those callbacks, and none of the later ones.
func TestFakeAdvancePastSeveralFiresAll(t *testing.T) {
	f := NewFake(epoch)
	var early []<-chan time.Time
	for d := time.Second; d <= 3*time.Second; d += time.Second {
		_, ch := arm(f, d)
		early = append(early, ch)
	}
	late, lateCh := arm(f, time.Minute)
	f.Advance(5 * time.Second)
	for i, ch := range early {
		if _, ok := fired(ch); !ok {
			t.Errorf("callback %d did not run", i)
		}
	}
	if !idle(lateCh) {
		t.Error("a callback a minute out ran after 5s")
	}
	if !late.Stop() {
		t.Error("Stop on a pending timer reported it not armed")
	}
}

// TestFakeStopPreventsFire: a stopped callback never runs, and stopping
// it again, or stopping a fired one, reports false.
func TestFakeStopPreventsFire(t *testing.T) {
	f := NewFake(epoch)
	stopped, stoppedCh := arm(f, time.Second)
	kept, keptCh := arm(f, time.Second)
	if !stopped.Stop() {
		t.Fatal("Stop on an armed timer reported false")
	}
	f.Advance(time.Hour)
	if _, ok := fired(keptCh); !ok {
		t.Error("the callback armed beside it did not run")
	}
	if !idle(stoppedCh) {
		t.Error("a stopped callback ran")
	}
	if stopped.Stop() || kept.Stop() {
		t.Error("Stop on a stopped or fired timer reported true")
	}
}

// TestFakeCallbackMayBlock: a callback that blocks does not hold up
// Advance or the callbacks due with it; a non-positive duration starts
// its callback at once without arming.
func TestFakeCallbackMayBlock(t *testing.T) {
	f := NewFake(epoch)
	_, now := arm(f, 0)
	if _, ok := fired(now); !ok {
		t.Fatal("a zero-duration callback did not run at once")
	}
	release := make(chan struct{})
	defer close(release)
	f.AfterFunc(time.Second, func() { <-release })
	_, ch := arm(f, 2*time.Second)
	f.Advance(2 * time.Second)
	if _, ok := fired(ch); !ok {
		t.Error("a callback due beside a blocked one did not run")
	}
}

// TestFakeWaitArmed: WaitArmed returns once another goroutine has armed
// the timers it waits for.
func TestFakeWaitArmed(t *testing.T) {
	f := NewFake(epoch)
	got := make(chan time.Time, 1)
	go func() {
		f.AfterFunc(time.Second, func() {})
		f.AfterFunc(2*time.Second, func() { got <- f.Now() })
	}()
	f.WaitArmed(2)
	f.Advance(2 * time.Second)
	if v := <-got; v != epoch.Add(2*time.Second) {
		t.Errorf("read %v", v)
	}
}

// TestRealTimer: the wall clock's callbacks run and stop.
func TestRealTimer(t *testing.T) {
	var c Real
	if c.Now().IsZero() {
		t.Fatal("Real.Now is the zero time")
	}
	_, ch := arm(c, time.Millisecond)
	if _, ok := fired(ch); !ok {
		t.Error("a 1ms wall-clock callback did not run within a second")
	}
	if !c.AfterFunc(time.Hour, func() {}).Stop() {
		t.Error("Stop on an armed wall-clock timer reported false")
	}
}
