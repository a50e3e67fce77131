package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 when empty so an unused layer reads as "no work here".
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(sortedCopy(v), 0.5)
}

// tail picks the highest of p99/p95/p90 that still has at least ten samples
// beyond it, and p75 for fewer than a hundred samples. It returns the value
// and the percentile's name, so the output records which one the sample
// count supports.
func tail(sorted []float64) (float64, string) {
	for _, pct := range []int{99, 95, 90} {
		if len(sorted)*(100-pct) >= 10*100 {
			return quantile(sorted, float64(pct)/100), fmt.Sprintf("p%d", pct)
		}
	}
	return quantile(sorted, 0.75), "p75"
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
