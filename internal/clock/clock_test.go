package clock

import (
	"testing"
	"time"
)

var epoch = time.Date(2011, 9, 13, 0, 0, 0, 0, time.UTC)

// fired reports the value t delivered, if it has fired.
func fired(t Timer) (time.Time, bool) {
	select {
	case v := <-t.C():
		return v, true
	default:
		return time.Time{}, false
	}
}

// TestFakeFiresInDeadlineOrder: timers armed out of order fire one by one
// as Advance reaches each deadline, each delivering its own deadline.
func TestFakeFiresInDeadlineOrder(t *testing.T) {
	f := NewFake(epoch)
	timers := map[time.Duration]Timer{}
	for _, d := range []time.Duration{30, 10, 20} {
		timers[d*time.Millisecond] = f.NewTimer(d * time.Millisecond)
	}
	for step := 1; step <= 3; step++ {
		f.Advance(10 * time.Millisecond)
		for d, tm := range timers {
			v, ok := fired(tm)
			if want := d <= time.Duration(step)*10*time.Millisecond; ok != want {
				t.Fatalf("step %d: %v timer fired = %v, want %v", step, d, ok, want)
			}
			if ok {
				if v != epoch.Add(d) {
					t.Errorf("%v timer delivered %v, want its deadline %v", d, v, epoch.Add(d))
				}
				delete(timers, d)
			}
		}
	}
	if now := f.Now(); now != epoch.Add(30*time.Millisecond) {
		t.Errorf("Now = %v after three 10ms advances", now)
	}
}

// TestFakeAdvancePastSeveralFiresAll: one Advance past several deadlines
// fires every one of them, and none of the later ones.
func TestFakeAdvancePastSeveralFiresAll(t *testing.T) {
	f := NewFake(epoch)
	var early []Timer
	for d := time.Second; d <= 3*time.Second; d += time.Second {
		early = append(early, f.NewTimer(d))
	}
	late := f.NewTimer(time.Minute)
	f.Advance(5 * time.Second)
	for i, tm := range early {
		if v, ok := fired(tm); !ok || v != epoch.Add(time.Duration(i+1)*time.Second) {
			t.Errorf("timer %d: fired %v with %v, want its deadline", i, ok, v)
		}
	}
	if _, ok := fired(late); ok {
		t.Error("a timer a minute out fired after 5s")
	}
	if !late.Stop() {
		t.Error("Stop on a pending timer reported it not armed")
	}
}

// TestFakeStopPreventsFire: a stopped timer never fires, and stopping it
// again, or stopping a fired one, reports false.
func TestFakeStopPreventsFire(t *testing.T) {
	f := NewFake(epoch)
	stopped, kept := f.NewTimer(time.Second), f.NewTimer(time.Second)
	if !stopped.Stop() {
		t.Fatal("Stop on an armed timer reported false")
	}
	f.Advance(time.Hour)
	if _, ok := fired(stopped); ok {
		t.Error("a stopped timer fired")
	}
	if _, ok := fired(kept); !ok {
		t.Error("the timer armed beside it did not fire")
	}
	if stopped.Stop() || kept.Stop() {
		t.Error("Stop on a stopped or fired timer reported true")
	}
}

// TestFakeWaitArmed: WaitArmed returns once another goroutine has armed
// the timers it waits for; a non-positive duration fires at once without
// arming.
func TestFakeWaitArmed(t *testing.T) {
	f := NewFake(epoch)
	if _, ok := fired(f.NewTimer(0)); !ok {
		t.Fatal("a zero-duration timer did not fire at once")
	}
	got := make(chan time.Time)
	go func() {
		a, b := f.NewTimer(time.Second), f.NewTimer(2*time.Second)
		<-a.C()
		got <- <-b.C()
	}()
	f.WaitArmed(2)
	f.Advance(2 * time.Second)
	if v := <-got; v != epoch.Add(2*time.Second) {
		t.Errorf("delivered %v", v)
	}
}

// TestRealTimer: the wall clock's timers fire and stop.
func TestRealTimer(t *testing.T) {
	var c Real
	if c.Now().IsZero() {
		t.Fatal("Real.Now is the zero time")
	}
	<-c.NewTimer(time.Millisecond).C()
	if !c.NewTimer(time.Hour).Stop() {
		t.Error("Stop on an armed wall-clock timer reported false")
	}
}
