package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramCountBounds(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Errorf("empty histogram quantile = %g, want NaN", h.Quantile(0.5))
	}
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p50 != 0 || p99 != 0 {
		t.Errorf("all zeros: p50 %g, p99 %g; want 0, 0", p50, p99)
	}
	h.Observe(3)
	h.Observe(9)
	bounds, cum := h.Buckets()
	wantBounds := []float64{0, 1, 2, 4, math.Inf(1)}
	wantCum := []uint64{10, 10, 10, 11, 12}
	if fmt.Sprint(bounds) != fmt.Sprint(wantBounds) || fmt.Sprint(cum) != fmt.Sprint(wantCum) {
		t.Errorf("Buckets = %v %v, want %v %v", bounds, cum, wantBounds, wantCum)
	}
	if h.Count() != 12 || h.Sum() != 12 {
		t.Errorf("Count %d, Sum %g; want 12, 12", h.Count(), h.Sum())
	}

	c := h.Clone()
	h.Observe(1)
	if c.Count() != 12 {
		t.Errorf("clone count moved with the original: %d", c.Count())
	}
	if _, cum := c.Buckets(); cum[1] != 10 {
		t.Errorf("clone buckets moved with the original: %v", cum)
	}
}

func TestKeyedCapFoldsIntoOther(t *testing.T) {
	k := NewKeyed[int](2, nil)
	for _, key := range []string{"b", "a", "c", "d", "a"} {
		k.Update(key, func(n *int) { *n++ })
	}
	var got []string
	k.Each(func(key string, n *int) { got = append(got, fmt.Sprintf("%s=%d", key, *n)) })
	if want := "a=2 b=1 other=2"; strings.Join(got, " ") != want {
		t.Errorf("rows %v, want %s", got, want)
	}
}

// TestKeyedConcurrent bumps rows from several goroutines, through Update
// and Each; run it with -race.
func TestKeyedConcurrent(t *testing.T) {
	k := NewKeyed(0, func() *Histogram { return NewHistogram([]float64{1}) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k.Update(fmt.Sprint(i%3), func(h *Histogram) { h.Observe(float64(g)) })
				k.Each(func(string, *Histogram) {})
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	k.Each(func(_ string, h *Histogram) { total += h.Count() })
	if total != 400 {
		t.Errorf("observed %d, want 400", total)
	}
}

func TestWrite(t *testing.T) {
	h := NewHistogram([]float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(1)
	var b strings.Builder
	err := Write(&b, []Family{
		Counter("c_total", "A counter.", Value(uint64(7))),
		Gauge("g", "A gauge, by mode.", Value(-3, "mode", "a"), Value(int64(4), "mode", `q"b`)),
		Gauge("f", "Floats print as %g.", Value(0.5, "k", "x", "q", "0.99"), Value(1e21)),
		Counter("empty_total", "Written with no samples."),
		Counter("omitted_total", "Left out.").OmitEmpty(),
		Histograms("h_seconds", "A histogram.", Hist(h, "bench", "r"), Hist(h)),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 7
# HELP g A gauge, by mode.
# TYPE g gauge
g{mode="a"} -3
g{mode="q\"b"} 4
# HELP f Floats print as %g.
# TYPE f gauge
f{k="x",q="0.99"} 0.5
f 1e+21
# HELP empty_total Written with no samples.
# TYPE empty_total counter
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{bench="r",le="0.5"} 1
h_seconds_bucket{bench="r",le="2"} 2
h_seconds_bucket{bench="r",le="+Inf"} 2
h_seconds_sum{bench="r"} 1.25
h_seconds_count{bench="r"} 2
h_seconds_bucket{le="0.5"} 1
h_seconds_bucket{le="2"} 2
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 1.25
h_seconds_count 2
`
	if b.String() != want {
		t.Errorf("Write:\n%s\nwant:\n%s", b.String(), want)
	}
}
