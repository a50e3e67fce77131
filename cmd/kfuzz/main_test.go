package main

import (
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// TestRun runs a two-seed campaign, which must agree everywhere; a
// 40-request attack campaign against an in-process worker, which must
// classify every reply; and names a device that does not exist, which is
// an error other than a verdict: main exits 2 on it, not 1.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-seed", "1", "-n", "2"}, &out); err != nil {
		t.Fatalf("-seed 1 -n 2: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "kfuzz: seeds 1..2 (2 run)") {
		t.Errorf("no summary line for seeds 1..2:\n%s", out.String())
	}

	s := sched.New(sched.Options{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(server.New(s).Handler())
	defer ts.Close()
	out.Reset()
	if err := run([]string{"-attack", ts.URL, "-n", "40"}, &out); err != nil {
		t.Fatalf("-attack -n 40: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "kfuzz -attack "+ts.URL+": 40 request(s) in ") {
		t.Errorf("no attack summary line for 40 requests:\n%s", out.String())
	}

	err := run([]string{"-device", "nope"}, io.Discard)
	if err == nil || errors.Is(err, errFailed) {
		t.Errorf("-device nope: %v, want an error that is not a verdict", err)
	}
}
