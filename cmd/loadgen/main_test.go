package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"gpucmp/internal/sched"
	"gpucmp/internal/server"
)

// TestRun offers the mixed workload to an in-process worker, which must
// pass the zero-error gate, then to a handler that answers every request
// with an untyped 500, which must fail it.
func TestRun(t *testing.T) {
	s := sched.New(sched.Options{})
	defer s.Close()
	worker := httptest.NewServer(server.New(s).Handler())
	defer worker.Close()
	args := []string{"-duration", "500ms", "-rps", "20", "-maxerr", "0", "-out", filepath.Join(t.TempDir(), "serve.json")}
	if err := run(append(args, "-target", worker.URL), io.Discard); err != nil {
		t.Errorf("against a worker: %v", err)
	}

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()
	err := run(append(args, "-target", broken.URL), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "error fraction") {
		t.Errorf("against untyped 500s: %v, want the error-fraction gate to fail", err)
	}
}
