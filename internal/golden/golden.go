// Package golden is how a test pins bytes it does not state inline: the
// expected bytes, or their digest, live in a file under the package's
// testdata/, Check compares them, and -update rewrites every such file
// from what the tests produce. DESIGN.md §5 gives the one command that
// rewrites them all.
package golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files with what the tests produce")

// Check compares got with the file at path byte for byte, or writes got
// there under -update. A mismatch fails t, quoting the first line that
// differs, and Check reports false.
func Check(t testing.TB, path string, got []byte) bool {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return true
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if bytes.Equal(got, want) {
		return true
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	i := 0
	for i < len(gl) && i < len(wl) && bytes.Equal(gl[i], wl[i]) {
		i++
	}
	t.Errorf("%s differs from line %d on (run with -update after checking the change)\n got  %q\n want %q",
		path, i+1, line(gl, i), line(wl, i))
	return false
}

// line is lines[i], or nothing past the end.
func line(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
