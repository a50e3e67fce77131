package main

import (
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpucmp/internal/arch"
	"gpucmp/internal/fuzz"
	"gpucmp/internal/kir"
	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// TestRun runs a two-seed campaign, which must agree everywhere and dump
// both programs as corpus files that decode; a 40-request attack campaign
// against an in-process worker, which must classify every reply; and names
// a device that does not exist, which is an error other than a verdict:
// main exits 2 on it, not 1.
func TestRun(t *testing.T) {
	var out strings.Builder
	dir := t.TempDir()
	if err := run([]string{"-seed", "1", "-n", "2", "-dump", dir}, &out); err != nil {
		t.Fatalf("-seed 1 -n 2: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "kfuzz: seeds 1..2 (2 run)") {
		t.Errorf("no summary line for seeds 1..2:\n%s", out.String())
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 2 {
		t.Fatalf("-dump wrote %v (%v), want two corpus files", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fuzz.Decode(data); err != nil {
			t.Errorf("%s: %v", f, err)
		}
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

	err = run([]string{"-device", "nope"}, io.Discard)
	if err == nil || errors.Is(err, errFailed) {
		t.Errorf("-device nope: %v, want an error that is not a verdict", err)
	}
}

// TestReport: a divergence is printed in full, then bisected and shrunk on
// request. Here the reported divergence is planted on a program that
// computes correctly, so bisection says it does not reproduce and
// minimization says it lost the failure.
func TestReport(t *testing.T) {
	p := fuzz.Generate(1, fuzz.DefaultConfig())
	gtx480 := arch.GTX480()
	d := &fuzz.Divergence{Seed: 1, Toolchain: "cuda", Device: gtx480.Name, Source: kir.Format(p.Kernel)}
	var out strings.Builder
	report(&out, p, d, []*arch.Device{gtx480}, true, true, t.TempDir())
	for _, want := range []string{
		"DIVERGENCE\n" + d.Error() + "\n",
		"bisect seed 1 (cuda on " + gtx480.Name + "): divergence did not reproduce under the baseline config\n",
		"minimization lost the failure; reporting the original\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}
