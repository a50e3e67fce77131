// Package metrics is the one mechanism behind the service's counters: a
// fixed-bucket histogram, tables of per-key rows, and the Prometheus text
// writer every /metrics endpoint renders through. Counters bumped on a
// request path stay sync/atomic values in their owner's struct; this
// package holds what needs more than an atomic.
package metrics

import (
	"math"
	"slices"
	"sort"
)

// Histogram is a fixed-bucket histogram. It is not safe for concurrent
// use: its owner guards it, as a Keyed table does its rows.
type Histogram struct {
	bounds []float64 // ascending upper bounds, shared read-only; +Inf follows
	counts []uint64  // one per bound, then the +Inf overflow bucket
	sum    float64
	n      uint64
}

// NewHistogram returns an empty histogram over the given ascending upper
// bounds; values above the last land in a +Inf bucket. bounds must not be
// modified afterwards.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one value in the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of the observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Clone returns a copy that shares nothing mutable with h.
func (h *Histogram) Clone() Histogram {
	c := *h
	c.counts = slices.Clone(h.counts)
	return c
}

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the owning bucket; NaN when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo * 2
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - seen) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Buckets returns (upper bound, cumulative count) pairs in Prometheus
// style, ending with the +Inf bucket.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	bounds := append(slices.Clone(h.bounds), math.Inf(1))
	cum := make([]uint64, len(h.counts))
	var total uint64
	for i, c := range h.counts {
		total += c
		cum[i] = total
	}
	return bounds, cum
}
