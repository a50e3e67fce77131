package gpucmp

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignLayoutNamesEveryDirectory: section 5 of DESIGN.md lists each
// cmd/ and internal/ directory on a line of its own. A directory added
// without a line, or a line left naming a deleted directory, fails here.
func TestDesignLayoutNamesEveryDirectory(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	start, end := strings.Index(text, "\n## 5. Layout\n"), strings.Index(text, "\n## 6.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no section 5 (Layout) followed by a section 6")
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^((?:cmd|internal)/[^ /\n]+) `).FindAllStringSubmatch(text[start:end], -1) {
		named[m[1]] = true
	}

	for _, pattern := range []string{"cmd/*", "internal/*"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
				continue
			}
			d := filepath.ToSlash(p)
			if !named[d] {
				t.Errorf("DESIGN.md section 5 does not name %s", d)
			}
			delete(named, d)
		}
	}
	for d := range named {
		t.Errorf("DESIGN.md section 5 names %s, which does not exist", d)
	}
}
