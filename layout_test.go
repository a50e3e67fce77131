package gpucmp

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
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
// DESIGN.md tell the reader what to run. Every `go run ./cmd/<x>` or
// cmd/<x> in them or in an internal/*/README.md, prose or code, must name
// a directory that exists, so a deleted command cannot linger. Every id
// handed to paper, on a `go run ./cmd/paper` line or in a code span
// opening with `paper`, must be a row of the figure table or one of fair,
// profile and passes. In the documents' code, every `go test` -run,
// -bench or -fuzz pattern, quoted or not, must match a test, benchmark or
// fuzz target, except the match-nothing patterns XXX and ^$. A code span that is only a test, example,
// benchmark or fuzz function's name, `pkg.`-qualified or not, must name a
// real one; a trailing * makes it a prefix, and a trailing {A,B} group
// names one function per member. Every gpucmpd_ metric named in the
// documents' code must be a family the worker or the coordinator exports
// (a # TYPE line of a /metrics golden); a trailing _ makes it a prefix.
// In those documents and in each internal/*/README.md, every -flag
// handed to a command must be one the command defines, a code span that
// is only a -flag must name one that a command, the benchmark, a test or
// go test defines, no deleted command or BENCH_*.json recording may be
// named, and a code span that is only `pkg.Name`, pkg an internal/
// package and Name exported, must name what pkg's non-test files declare:
// a package-level name, or a method or struct field, which the documents
// name as `ptx.Validate` for `ptx.Kernel.Validate` (a trailing * makes it
// a prefix). Every internal/, cmd/ or benchmark/ path in a code span must
// exist.
func TestDocumentsNameOnlyRealCommands(t *testing.T) {
	flags := commandFlags(t)
	tests := testNames(t)
	families := metricFamilies(t)
	decls := packageDecls(t)
	readmes, err := filepath.Glob("internal/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	known := knownFlags(t, flags)
	for _, doc := range append([]string{"README.md", "EXPERIMENTS.md", "DESIGN.md"}, readmes...) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdDir.FindAllStringSubmatch(string(b), -1) {
			if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
				t.Errorf("%s: %q names a command that does not exist", doc, m[0])
			}
		}
		for _, name := range retired.FindAllString(string(b), -1) {
			t.Errorf("%s: names %s, which no longer exists", doc, name)
		}
		for _, code := range codeFragments(string(b)) {
			checkFlags(t, doc, code, flags)
			if m := loneFlag.FindStringSubmatch(code); m != nil && !known[m[1]] {
				t.Errorf("%s: `%s` names a flag that no command, test or go test defines", doc, code)
			}
			checkGoName(t, doc, code, decls)
			checkPaths(t, doc, code)
		}
	}
	ids := map[string]bool{"fair": true, "profile": true, "passes": true}
	for _, id := range core.FigureIDs() {
		ids[id] = true
	}
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
		for _, code := range codeFragments(text) {
			checkTestPatterns(t, doc, code, tests)
			checkTestName(t, doc, code, tests)
			checkMetricNames(t, doc, code, families)
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

// fence opens or closes a fenced code block; inlineCode is a code span,
// which may wrap onto the next line.
var (
	fence      = regexp.MustCompile("(?m)^```")
	inlineCode = regexp.MustCompile("`([^`]+)`")
)

// codeFragments returns the code in a Markdown document: each line of a
// fenced block, and each inline code span outside the blocks.
func codeFragments(text string) []string {
	var code []string
	parts := fence.Split(text, -1)
	for i, part := range parts {
		if i%2 == 1 {
			code = append(code, strings.Split(part, "\n")...)
			continue
		}
		for _, m := range inlineCode.FindAllStringSubmatch(part, -1) {
			code = append(code, m[1])
		}
	}
	return code
}

// args is a command line's arguments: they end at a shell operator or a
// comment outside quotes.
const args = `((?:\s+(?:'[^']*'|"[^"]*"|[^\s|;#>&)'"]+))*)`

var (
	// invocation is a command run by `go run`, by its bare name, or by its
	// cmd/ path, and its arguments.
	invocation = regexp.MustCompile(`(?:go run \./cmd/|(?:^|\s)(?:cmd/)?)(gpucmpd|kfuzz|paper)\b` + args)
	// retired names the deleted commands and benchmark recordings: the
	// serving and interpreter SLOs are go tests now.
	retired = regexp.MustCompile(`\b(?:loadgen|simbench)\b|\bBENCH_\w+\.json`)
	// loneFlag is a code span that is only a flag, with or without a
	// value: `-drain-notice`, `-scale N`.
	loneFlag = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:[ =]\S+)?$`)
	// cmdDir is a command's directory, in prose or code: `go run
	// ./cmd/kfuzz`, cmd/paper/testdata.
	cmdDir  = regexp.MustCompile(`\bcmd/([\w-]+)`)
	flagArg = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
	goTest  = regexp.MustCompile(`go test` + args)
	// flagDef is a flag definition: flag.Int("name", …), fs.BoolVar(&v, "name", …).
	flagDef  = regexp.MustCompile(`\b(?:flag|fs)\.[A-Z]\w*\(\s*(?:&[\w.]+,\s*)?"([^"]+)"`)
	testFunc = regexp.MustCompile(`(?m)^func ((Test|Example|Benchmark|Fuzz)\w*)\(`)
	// testName is a code fragment that is only a function name: an
	// optional package qualifier, the name, then * or a {A,B} group.
	testName = regexp.MustCompile(`^(?:[a-z]\w*\.)?((Test|Example|Benchmark|Fuzz)\w*)(\*|\{\w+(?:,\w+)+\})?$`)
	// metricName is a gpucmpd_ metric name; typeLine declares a family.
	metricName = regexp.MustCompile(`\bgpucmpd_\w*`)
	typeLine   = regexp.MustCompile(`(?m)^# TYPE (\S+) `)
)

// commandFlags returns, for each command under cmd/, the flags its
// non-test sources define.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(f))
		if out[cmd] == nil {
			out[cmd] = map[string]bool{"h": true, "help": true}
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			out[cmd][m[1]] = true
		}
	}
	return out
}

// knownFlags returns every flag a command under cmd/, the benchmark or a
// test binary defines, and go test's own.
func knownFlags(t *testing.T, commands map[string]map[string]bool) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, f := range strings.Fields("bench benchmem benchtime count cpu fuzz fuzztime p race run short shuffle skip timeout v") {
		out[f] = true
	}
	for _, flags := range commands {
		for f := range flags {
			out[f] = true
		}
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") && !strings.HasPrefix(path, "benchmark/") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkFlags reports each flag a code fragment hands to a command that the
// command does not define.
func checkFlags(t *testing.T, doc, code string, flags map[string]map[string]bool) {
	t.Helper()
	for _, m := range invocation.FindAllStringSubmatch(code, -1) {
		for _, a := range strings.Fields(m[2]) {
			if strings.HasPrefix(a, "$(") {
				break // the flags that follow are the substituted command's
			}
			f := flagArg.FindStringSubmatch(a)
			if f != nil && !flags[m[1]][f[1]] {
				t.Errorf("%s: %q hands %s -%s, which it does not define", doc, strings.TrimSpace(m[0]), m[1], f[1])
			}
		}
	}
}

// testNames returns the repo's test, example, benchmark and fuzz function
// names, keyed by kind.
func testNames(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			out[m[2]] = append(out[m[2]], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkTestPatterns reports each `go test` -run, -bench or -fuzz pattern in
// a code fragment that matches no function of its kinds.
func checkTestPatterns(t *testing.T, doc, code string, tests map[string][]string) {
	t.Helper()
	kinds := map[string][]string{"run": {"Test", "Example", "Fuzz"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	for _, m := range goTest.FindAllStringSubmatch(code, -1) {
		fields := strings.Fields(m[1])
		for i, a := range fields {
			name, pat, ok := strings.Cut(strings.TrimLeft(a, "-"), "=")
			if !strings.HasPrefix(a, "-") || kinds[name] == nil {
				continue
			}
			if !ok {
				if i+1 == len(fields) {
					continue
				}
				pat = fields[i+1]
			}
			pat = strings.Trim(pat, `'"`)
			if pat == "XXX" || pat == "^$" {
				continue
			}
			// A -run pattern's first slash-separated element names the
			// top-level test; the rest name subtests.
			top, _, _ := strings.Cut(pat, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("%s: go test -%s %q is not a regular expression: %v", doc, name, pat, err)
				continue
			}
			if !matchesAny(re, kinds[name], tests) {
				t.Errorf("%s: go test -%s %q matches no function", doc, name, pat)
			}
		}
	}
}

// checkTestName reports a code fragment that is only a function name when
// no test, example, benchmark or fuzz function has that name.
func checkTestName(t *testing.T, doc, code string, tests map[string][]string) {
	t.Helper()
	m := testName.FindStringSubmatch(code)
	if m == nil {
		return
	}
	name, kind, suffix := m[1], []string{m[2]}, m[3]
	switch {
	case suffix == "*":
		if !matchesAny(regexp.MustCompile("^"+name), kind, tests) {
			t.Errorf("%s: `%s` names no function: none starts with %s", doc, code, name)
		}
	case suffix != "":
		for _, alt := range strings.Split(strings.Trim(suffix, "{}"), ",") {
			if !matchesAny(regexp.MustCompile("^"+name+alt+"$"), kind, tests) {
				t.Errorf("%s: `%s` names %s%s, which is not a function", doc, code, name, alt)
			}
		}
	default:
		if !matchesAny(regexp.MustCompile("^"+name+"$"), kind, tests) {
			t.Errorf("%s: `%s` names no function", doc, code)
		}
	}
}

func matchesAny(re *regexp.Regexp, kinds []string, tests map[string][]string) bool {
	for _, k := range kinds {
		for _, n := range tests[k] {
			if re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// packageDecls returns, for each internal/ package, the names its
// non-test files declare: functions, methods, types, struct fields,
// variables and constants.
func packageDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("internal/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(f))
		if out[pkg] == nil {
			out[pkg] = map[string]bool{}
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				out[pkg][d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						out[pkg][spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, n := range f.Names {
									out[pkg][n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							out[pkg][n.Name] = true
						}
					}
				}
			}
		}
	}
	return out
}

// goName is a code fragment that is only a package-qualified exported
// name, with an optional trailing *. (Lower-case `sched.do_hit_us` names a
// benchmark metric, not Go.)
var goName = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(\*?)$`)

// checkGoName reports a code fragment that is only `pkg.Name`, pkg an
// internal/ package, when pkg declares no such name (or, with a trailing
// *, no name with that prefix). Test function names are checkTestName's.
func checkGoName(t *testing.T, doc, code string, decls map[string]map[string]bool) {
	t.Helper()
	m := goName.FindStringSubmatch(code)
	if m == nil || decls[m[1]] == nil || testName.MatchString(code) {
		return
	}
	pkg, name, prefix := m[1], m[2], m[3] == "*"
	for d := range decls[pkg] {
		if d == name || prefix && strings.HasPrefix(d, name) {
			return
		}
	}
	t.Errorf("%s: `%s` names nothing internal/%s declares", doc, code, pkg)
}

// repoPath is a path under internal/, cmd/ or benchmark/ in a code
// fragment. It ends before a :line suffix, a /... package pattern or a
// .Name Go qualifier (`internal/fuzz.Bisect`).
var repoPath = regexp.MustCompile(`(?:^|[\s(./"'=])((?:internal|cmd|benchmark)/[\w*/-]*(?:\.[a-z][\w*.-]*)?)`)

// checkPaths reports each internal/, cmd/ or benchmark/ path a code
// fragment names that does not exist; a path with a * must match
// something.
func checkPaths(t *testing.T, doc, code string) {
	t.Helper()
	for _, m := range repoPath.FindAllStringSubmatch(code, -1) {
		matches, err := filepath.Glob(m[1])
		if err != nil || len(matches) == 0 {
			t.Errorf("%s: `%s` names %s, which does not exist", doc, code, m[1])
		}
	}
}

// metricFamilies returns the metric families the worker and the
// coordinator export, as their /metrics goldens declare them.
func metricFamilies(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, f := range []string{"worker_metrics.golden", "coordinator_metrics.golden"} {
		b, err := os.ReadFile(filepath.Join("internal", "cluster", "testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range typeLine.FindAllStringSubmatch(string(b), -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// checkMetricNames reports each gpucmpd_ metric a code fragment names that
// is not an exported family, or, ending in _, the prefix of none.
func checkMetricNames(t *testing.T, doc, code string, families []string) {
	t.Helper()
	for _, name := range metricName.FindAllString(code, -1) {
		found := false
		for _, f := range families {
			if f == name || strings.HasSuffix(name, "_") && strings.HasPrefix(f, name) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: `%s` names %s, which no /metrics family is", doc, code, name)
		}
	}
}

// TestPinsAreGoldens: outside benchmark/, a pinned fact is re-recorded one
// way, by internal/golden's -update. DESIGN.md §5 gives the command that
// rewrites every golden, so it must name exactly the packages whose tests
// import internal/golden (a missing one keeps its old pins; an extra one
// fails on the undefined flag). A 64-hex-digit string literal in a test is
// a digest pasted by hand, and a decimal fraction in an example's Output
// block is a price edited by hand: both belong in a golden.
func TestPinsAreGoldens(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?m)^go test ((?:\\.\\S* )+)-update$").FindSubmatch(design)
	if m == nil {
		t.Fatal("DESIGN.md has no `go test <packages> -update` line")
	}
	listed := map[string]bool{}
	for _, p := range strings.Fields(string(m[1])) {
		listed[p] = true
	}

	hexDigest := regexp.MustCompile(`[0-9a-fA-F]{64}`)
	price := regexp.MustCompile(`\d\.\d`)
	users := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".")) && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"gpucmp/internal/golden"` {
				pkg := filepath.ToSlash(filepath.Dir(path))
				if pkg != "." {
					pkg = "./" + pkg
				}
				users[pkg] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && hexDigest.MatchString(lit.Value) {
				t.Errorf("%s: a 64-hex-digit literal; pin the digest in a testdata golden", fset.Position(lit.Pos()))
			}
			return true
		})
		for _, ex := range doc.Examples(f) {
			if price.MatchString(ex.Output) {
				t.Errorf("%s: Example%s's Output block holds a decimal fraction; print the relation and pin the price in a golden", path, ex.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range users {
		if !listed[p] {
			t.Errorf("%s's tests use internal/golden, but DESIGN.md's -update command leaves it out", p)
		}
		delete(listed, p)
	}
	for p := range listed {
		t.Errorf("DESIGN.md's -update command names %s, whose tests do not use internal/golden", p)
	}
}
