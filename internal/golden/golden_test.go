package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder keeps what Check reports instead of failing the test.
type recorder struct {
	testing.TB
	errors []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

// TestCheck: every pin outside benchmark/ rests on Check failing when the
// bytes differ, so a mismatch must fail and name the line, and a match
// must not.
func TestCheck(t *testing.T) {
	if *update {
		t.Skip("under -update Check writes instead of comparing")
	}
	path := filepath.Join(t.TempDir(), "x.golden")
	if err := os.WriteFile(path, []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := &recorder{TB: t}
	if !Check(r, path, []byte("a\nb\nc\n")) || len(r.errors) != 0 {
		t.Fatalf("equal bytes: errors %q", r.errors)
	}
	for _, got := range []string{"a\nB\nc\n", "a\nb\nc", "a\nb\nc\nd\n", ""} {
		r.errors = nil
		if Check(r, path, []byte(got)) || len(r.errors) != 1 {
			t.Errorf("%q against %q: passed, or errors %q", got, "a\nb\nc\n", r.errors)
		}
	}
	if r := (&recorder{TB: t}); Check(r, path, []byte("a\nB\n")) || !strings.Contains(r.errors[0], "differs from line 2 on") {
		t.Errorf("a change on line 2 reported as %q", r.errors)
	}
}
