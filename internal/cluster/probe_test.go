package cluster

import (
	"errors"
	"net/http"
	"reflect"
	"testing"
)

// probeStub is the Config.Client transport of the prober tests: it answers
// each worker's readiness probe with the scripted status (0 = the
// connection fails), so probeOnce can be driven tick by tick without a
// listener, a clock or a sleep.
type probeStub map[string]int

func (p probeStub) RoundTrip(req *http.Request) (*http.Response, error) {
	status := p["http://"+req.URL.Host]
	if status == 0 {
		return nil, errors.New("probe stub: connection refused")
	}
	return &http.Response{StatusCode: status, Body: http.NoBody, Request: req}, nil
}

func probeFixture() (*Coordinator, probeStub, func(want ...string) bool) {
	stub := probeStub{"http://a": 200, "http://b": 200, "http://c": 200}
	c := New(Config{
		Workers: []string{"http://a", "http://b", "http://c"},
		Client:  &http.Client{Transport: stub},
	})
	onRing := func(want ...string) bool { return reflect.DeepEqual(c.Ring().Members(), want) }
	return c, stub, onRing
}

// TestProbeHysteresis: isolated misses never evict, probeMisses
// consecutive ones do, and the first success re-admits.
func TestProbeHysteresis(t *testing.T) {
	c, stub, onRing := probeFixture()
	for tick, status := range []int{0, 200, 503, 200, 0, 503} {
		stub["http://a"] = status
		c.probeOnce()
		if !onRing("http://a", "http://b", "http://c") {
			t.Fatalf("tick %d (status %d): ring = %v, want all three: fewer than %d consecutive misses",
				tick, status, c.Ring().Members(), probeMisses)
		}
	}
	c.probeOnce() // the third miss in a row
	if !onRing("http://b", "http://c") {
		t.Fatalf("after %d consecutive misses: ring = %v, want a evicted", probeMisses, c.Ring().Members())
	}
	c.probeOnce()
	if !onRing("http://b", "http://c") {
		t.Fatalf("still down: ring = %v", c.Ring().Members())
	}
	stub["http://a"] = 200
	c.probeOnce()
	if !onRing("http://a", "http://b", "http://c") {
		t.Fatalf("after one success: ring = %v, want a re-admitted", c.Ring().Members())
	}
	stub["http://a"] = 0
	c.probeOnce()
	c.probeOnce()
	if !onRing("http://a", "http://b", "http://c") {
		t.Fatalf("re-admission did not reset the miss count: ring = %v", c.Ring().Members())
	}
}

// TestProbeSparesLastMember: probes alone never empty the ring, however
// long every worker stays silent; the spared worker goes as soon as another
// one is back to take its place.
func TestProbeSparesLastMember(t *testing.T) {
	c, stub, onRing := probeFixture()
	for w := range stub {
		stub[w] = 0
	}
	for tick := 0; tick < 10*probeMisses; tick++ {
		c.probeOnce()
		if c.Ring().Len() == 0 {
			t.Fatalf("tick %d: probes emptied the ring", tick)
		}
	}
	if !onRing("http://c") {
		t.Fatalf("every worker silent: ring = %v, want only the last one probed", c.Ring().Members())
	}
	stub["http://a"] = 200
	c.probeOnce()
	if !onRing("http://a") {
		t.Fatalf("a recovered: ring = %v, want the long-silent c replaced by a", c.Ring().Members())
	}
}
