package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRun runs a two-seed campaign, which must agree everywhere, and names
// a device that does not exist, which is an error other than a verdict:
// main exits 2 on it, not 1.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "1", "-n", "2"}, &out); err != nil {
		t.Fatalf("-seed 1 -n 2: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "kfuzz: seeds 1..2 (2 run)") {
		t.Errorf("no summary line for seeds 1..2:\n%s", out.String())
	}

	err := run([]string{"-device", "nope"}, io.Discard)
	if err == nil || errors.Is(err, errFailed) {
		t.Errorf("-device nope: %v, want an error that is not a verdict", err)
	}
}
