package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// sortedWindow and quantileOf are the quantile as the coordinator computed
// it before the window was kept ordered — copy the window, insertion-sort it
// from scratch, index — split in two so a test can sort once and read every
// quantile. They are the oracle the ordered window is held to.
func sortedWindow(t *latencyTracker) []time.Duration {
	t.mu.Lock()
	n := int(t.n)
	if n > len(t.buf) {
		n = len(t.buf)
	}
	window := make([]time.Duration, n)
	copy(window, t.buf[:n])
	t.mu.Unlock()
	for i := 1; i < n; i++ {
		for j := i; j > 0 && window[j] < window[j-1]; j-- {
			window[j], window[j-1] = window[j-1], window[j]
		}
	}
	return window
}

func quantileOf(window []time.Duration, q float64) (time.Duration, bool) {
	n := len(window)
	if n < 32 {
		return 0, false
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return window[i], true
}

var quantiles = []float64{0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999999}

// TestLatencyTrackerMatchesSortFromScratch feeds random sequences — heavy
// with duplicates, runs, extremes — and after every observation compares
// every quantile with the oracle: below 32 samples, while the window fills,
// at exactly 512, and well past the wrap-around.
func TestLatencyTrackerMatchesSortFromScratch(t *testing.T) {
	gens := map[string]func(r *rand.Rand, i int) time.Duration{
		"uniform":    func(r *rand.Rand, i int) time.Duration { return time.Duration(r.Int63n(int64(time.Second))) },
		"duplicates": func(r *rand.Rand, i int) time.Duration { return time.Duration(r.Intn(4)) * time.Millisecond },
		"constant":   func(r *rand.Rand, i int) time.Duration { return 7 * time.Millisecond },
		"ascending":  func(r *rand.Rand, i int) time.Duration { return time.Duration(i) },
		"descending": func(r *rand.Rand, i int) time.Duration { return time.Duration(1<<20 - i) },
		"extremes": func(r *rand.Rand, i int) time.Duration {
			return []time.Duration{0, -1, 1<<63 - 1, time.Millisecond}[r.Intn(4)]
		},
	}
	for name, gen := range gens {
		r := rand.New(rand.NewSource(1))
		lt := &latencyTracker{}
		for i := 0; i < 2*len(lt.buf)+17; i++ {
			lt.observe(gen(r, i))
			window := sortedWindow(lt)
			for _, q := range quantiles {
				got, gotOK := lt.quantile(q)
				want, wantOK := quantileOf(window, q)
				if got != want || gotOK != wantOK {
					t.Fatalf("%s: after %d observations, quantile(%v) = %v, %v; sorting from scratch gives %v, %v",
						name, i+1, q, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestLatencyTrackerConcurrentObserve runs observers and readers together
// (for -race) and then checks the window that results against the oracle.
func TestLatencyTrackerConcurrentObserve(t *testing.T) {
	lt := &latencyTracker{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 700; i++ {
				lt.observe(time.Duration(r.Intn(50)) * time.Millisecond)
				lt.quantile(0.95)
			}
		}(g)
	}
	wg.Wait()
	window := sortedWindow(lt)
	for _, q := range quantiles {
		got, _ := lt.quantile(q)
		if want, _ := quantileOf(window, q); got != want {
			t.Errorf("quantile(%v) = %v, sorting from scratch gives %v", q, got, want)
		}
	}
}

// TestHedgeDelayMatchesSortFromScratch is the same property one level up,
// through the clamps.
func TestHedgeDelayMatchesSortFromScratch(t *testing.T) {
	c := New(Config{Workers: []string{"http://a", "http://b"}})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1200; i++ {
		c.lat.observe(time.Duration(r.Int63n(int64(3 * time.Second))))
		want, ok := quantileOf(sortedWindow(c.lat), hedgeQuantile)
		if !ok {
			want = hedgeColdDelay
		}
		want = min(max(want, hedgeMinDelay), hedgeMaxDelay)
		if got := c.hedgeDelay(); got != want {
			t.Fatalf("after %d observations hedgeDelay = %v, want %v", i+1, got, want)
		}
	}
}

// TestReadBody covers both ways a worker reply is buffered, and that a
// reply over the limit, declared or chunked, is an error and never a
// truncated body.
func TestReadBody(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 1500)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/sized":
			w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
			w.Write(payload) //nolint:errcheck
		case "/chunked":
			w.Write(payload[:5000]) //nolint:errcheck
			w.(http.Flusher).Flush()
			w.Write(payload[5000:]) //nolint:errcheck
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
		case "/short":
			// Declares more than it sends: the connection is cut.
			w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
			w.Write(payload[:100]) //nolint:errcheck
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
	}))
	defer ts.Close()

	for _, tc := range []struct {
		path    string
		length  int64
		want    []byte
		wantErr bool
	}{
		{"/sized", int64(len(payload)), payload, false},
		{"/chunked", -1, payload, false},
		{"/empty", 0, []byte{}, false},
		{"/short", int64(len(payload)), nil, true},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != tc.length {
			t.Errorf("%s: ContentLength = %d, want %d", tc.path, resp.ContentLength, tc.length)
		}
		got, err := readBody(resp, maxProxyBody)
		resp.Body.Close()
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.path, err, tc.wantErr)
		}
		if !tc.wantErr && !bytes.Equal(got, tc.want) {
			t.Errorf("%s: read %d bytes, want %d", tc.path, len(got), len(tc.want))
		}
		if tc.length >= 0 && !tc.wantErr && cap(got) != len(tc.want) {
			t.Errorf("%s: buffer capacity %d for a declared %d bytes", tc.path, cap(got), len(tc.want))
		}
	}

	for _, path := range []string{"/sized", "/chunked"} {
		for _, limit := range []int64{int64(len(payload)), int64(len(payload)) - 1} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := readBody(resp, limit)
			resp.Body.Close()
			over := int64(len(payload)) > limit
			if over && (!errors.Is(err, errReplyTooLarge) || got != nil) {
				t.Errorf("%s over a %d-byte limit: read %d bytes, err %v; want errReplyTooLarge", path, limit, len(got), err)
			}
			if !over && (err != nil || !bytes.Equal(got, payload)) {
				t.Errorf("%s at a %d-byte limit: read %d bytes, err %v", path, limit, len(got), err)
			}
		}
	}
}

// BenchmarkHedgeDelay is what forward pays to arm the hedge timer, on a
// full window.
func BenchmarkHedgeDelay(b *testing.B) {
	c := New(Config{Workers: []string{"http://a", "http://b"}})
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2*len(c.lat.buf); i++ {
		c.lat.observe(time.Duration(r.Int63n(int64(time.Second))))
	}
	b.Run("hedgeDelay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.hedgeDelay()
		}
	})
	// The other half of the bargain: what keeping the window ordered adds
	// to each completed request.
	b.Run("observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.lat.observe(time.Duration(r.Int63n(int64(time.Second))))
		}
	})
}
