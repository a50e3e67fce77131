package main

import (
	"io"
	"strings"
	"testing"
)

// TestRun rejects a malformed -minspeedup before running anything, and
// fails the speedup gate of a one-benchmark profile held to 1000x.
func TestRun(t *testing.T) {
	err := run([]string{"-minspeedup", "threaded-seq"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-minspeedup") {
		t.Errorf("malformed -minspeedup: %v, want a -minspeedup error", err)
	}

	var out strings.Builder
	err = run([]string{"-benchmarks", "Reduce", "-scale", "64", "-reps", "1", "-minspeedup", "1000", "-out", "-"}, &out)
	if err == nil || !strings.Contains(err.Error(), "gate failed") {
		t.Errorf("-minspeedup 1000: %v, want a failed gate", err)
	}
	if !strings.Contains(out.String(), `"schema": 3`) {
		t.Errorf("no BENCH_sim.json document on stdout:\n%s", out.String())
	}
}
