package gpucmp

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gpucmp/internal/core"
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

// TestDocumentsNameOnlyRealCommands: README.md, EXPERIMENTS.md and
// DESIGN.md tell the reader what to run. Every `go run ./cmd/<x>` there
// must name a directory that exists, and every id handed to paper, on a
// `go run ./cmd/paper` line or in a code span opening with `paper`, must
// be a row of the figure table or one of fair, profile and passes.
func TestDocumentsNameOnlyRealCommands(t *testing.T) {
	ids := map[string]bool{"fair": true, "profile": true, "passes": true}
	for _, id := range core.FigureIDs() {
		ids[id] = true
	}
	goRun := regexp.MustCompile(`go run \./cmd/([\w-]+)`)
	// A paper command line ends at a code span's end, a line's end or a
	// shell operator.
	paper := regexp.MustCompile("(?:go run \\./cmd/paper|`paper)([^`\n|;#>)]*)")
	quoted := regexp.MustCompile(`"[^"]*"`)
	valueFlag := regexp.MustCompile(`^-(scale|device|bench|toolchain)$`)
	word := regexp.MustCompile(`^[A-Za-z]\w*$`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, m := range goRun.FindAllStringSubmatch(text, -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: %q names a command that does not exist", doc, m[0])
			}
		}
		for _, m := range paper.FindAllStringSubmatch(text, -1) {
			args := strings.Fields(quoted.ReplaceAllString(m[1], "_"))
			for i := 0; i < len(args); i++ {
				switch a := args[i]; {
				case valueFlag.MatchString(a):
					i++ // the flag's value
				case word.MatchString(a) && !ids[a]:
					t.Errorf("%s: %q hands paper %q, which is not an id", doc, strings.TrimSpace(m[0]), a)
				}
			}
		}
	}
}
