package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// Fixture packages under testdata/src, each loaded under an assumed import
// path so the path-scoped rules see what they would in the real tree. Every
// analyzer has both failing fixtures (annotated with // want) and passing
// ones (idioms the rules must accept).
var fixtures = []fixture{
	{"det", "repro/internal/fixture/det"},
	{"locks", "repro/internal/fixture/locks"},
	{"errs", "repro/internal/fixture/errs"},
	{"layer", "repro/internal/collab"},
	{"layer_ok", "repro/internal/fabric"},
	{"ignore", "repro/internal/fixture/ignore"},
	{"scope", "repro/examples/fixturescope"},
	{"guard", "repro/internal/fixture/guard"},
	{"lockedge", "repro/internal/fixture/lockedge"},
	{"blocklock", "repro/internal/fixture/blocklock"},
	{"chanproto", "repro/internal/fixture/chanproto"},
	{"chansubst", "repro/internal/fixture/chansubst"},
}

// recursionFixture holds summary-only cases: summaries.golden renders it,
// TestFixtures does not run it.
var recursionFixture = fixture{"recursion", "repro/internal/fixture/recursion"}

type fixture struct {
	dir  string
	path string
}

// fixtureBase is the one loader whose FileSet, package listing and
// export-data importer every fixture shares, so the go command is asked once
// per test binary instead of once per fixture. A fixture may import only
// what the module's packages import: nothing else has export data listed.
var (
	fixtureBase *Loader
	fixturePkgs = make(map[string]*Package)
	fixtureMemo = make(map[string][]Diagnostic)
)

// fixturePkg loads one fixture, memoized: every .go file in its directory,
// type-checked as its assumed path. Each fixture gets its own `loaded` map:
// packages memoize by import path, and a fixture loaded under a real
// package's path (layer_ok assumes fabric's) must not collide with
// the real package pulled in by another fixture's imports.
func fixturePkg(t *testing.T, fx fixture) *Package {
	t.Helper()
	if p, ok := fixturePkgs[fx.dir]; ok {
		return p
	}
	base := fixtureLoader(t)
	l := &Loader{
		Fset:   base.Fset,
		listed: base.listed,
		std:    base.std,
		loaded: make(map[string]*Package),
	}
	files, err := filepath.Glob(filepath.Join("testdata", "src", fx.dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.check(fx.path, files)
	if err != nil {
		t.Fatalf("load %s as %s: %v", fx.dir, fx.path, err)
	}
	fixturePkgs[fx.dir] = p
	return p
}

// fixtureLoader returns fixtureBase, listing the module on first use.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	if fixtureBase == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		fixtureBase = l
	}
	return fixtureBase
}

// fixtureDiags runs the full suite over one fixture, memoized so
// TestFixtures and TestFixturesGolden pay for each fixture once.
func fixtureDiags(t *testing.T, fx fixture) []Diagnostic {
	t.Helper()
	if diags, ok := fixtureMemo[fx.dir]; ok {
		return diags
	}
	fixtureMemo[fx.dir] = Check([]*Package{fixturePkg(t, fx)})
	return fixtureMemo[fx.dir]
}

func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			checkWants(t, filepath.Join("testdata", "src", fx.dir), fixtureDiags(t, fx))
		})
	}
}

// TestFixturesGolden pins every fixture diagnostic message-for-message.
// TestFixtures matches // want regexps, which a drifting `via` chain or
// held-lock name slips through; this compares the full rendering
// (file:line:col: [rule] message) against testdata/fixtures.golden.
// `make lint-golden` (-update) rewrites the file.
func TestFixturesGolden(t *testing.T) {
	var got strings.Builder
	for _, fx := range fixtures {
		for _, d := range fixtureDiags(t, fx) {
			d.Pos.Filename = filepath.ToSlash(d.Pos.Filename)
			got.WriteString(d.String() + "\n")
		}
	}
	checkGolden(t, "fixtures.golden", got.String())
}

// TestSummariesGolden pins the call-graph summary of every fixture
// function: the lock facts (delta, leaves, entry context) and the channel
// facts (ops with via,
// blockDesc, retMake). A fixpoint that stops early or diverges moves a
// line here before it moves a diagnostic. `make lint-golden` rewrites it.
func TestSummariesGolden(t *testing.T) {
	var lines []string
	for _, fx := range append(fixtures[:len(fixtures):len(fixtures)], recursionFixture) {
		m := NewModule([]*Package{fixturePkg(t, fx)})
		for _, mf := range m.byName {
			lines = append(lines, renderSummary(mf))
		}
	}
	sort.Strings(lines)
	checkGolden(t, "summaries.golden", strings.Join(lines, "\n")+"\n")
}

// renderSummary prints one function's summary on one line, facts sorted.
func renderSummary(mf *modFunc) string {
	pos := mf.pkg.position(mf.decl)
	var leaves, entry, ops []string
	for _, c := range mf.leaves {
		leaves = append(leaves, classShort(c))
	}
	for c := range mf.entry {
		entry = append(entry, classShort(c))
	}
	for _, f := range mf.ops {
		ops = append(ops, f.kind.String()+" "+classShort(f.class)+viaSuffix(f.via))
	}
	for _, s := range [][]string{entry, ops} {
		sort.Strings(s)
	}
	return fmt.Sprintf("%s:%d %s delta=%d leaves=%v entry=%v ops=%v block=%q ret=%d",
		filepath.ToSlash(pos.Filename), pos.Line, mf.obj.Name(), mf.delta, leaves, entry,
		ops, mf.blockDesc, mf.retMake)
}

func viaSuffix(via string) string {
	if via == "" {
		return ""
	}
	return " (via " + via + ")"
}

// checkGolden compares got with testdata/<name>, or rewrites it under
// -update, reporting the differing lines.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	inWant, inGot := make(map[string]bool), make(map[string]bool)
	for _, l := range strings.Split(string(want), "\n") {
		inWant[l] = true
	}
	for _, l := range strings.Split(got, "\n") {
		inGot[l] = true
		if !inWant[l] {
			t.Errorf("not in golden: %s", l)
		}
	}
	for l := range inWant {
		if !inGot[l] {
			t.Errorf("missing from run: %s", l)
		}
	}
	t.Errorf("%s differs from this run; if the change is intended: make lint-golden", golden)
}

// TestRepoIsClean is the gate the Makefile relies on: the repository itself
// must lint clean. A regression here usually means a satellite fix was
// reverted (a reintroduced time.Now, a send crept back under a lock).
func TestRepoIsClean(t *testing.T) {
	diags, err := CheckModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// --- // want annotation driver ------------------------------------------

// A want annotation expects a diagnostic on its own line whose
// "[rule] message" rendering matches the quoted regexp:
//
//	time.Now() // want "det-time"
//
// An optional offset targets a neighboring line, for lines whose own text
// cannot carry a comment (e.g. malformed //lint:ignore directives, where a
// trailing comment would change the directive's field count):
//
//	// want(-1) "lint-directive"
var (
	wantRe    = regexp.MustCompile(`//\s*want(?:\((-?\d+)\))?\s+(.+)$`)
	wantArgRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

type want struct {
	file string // base name
	line int
	re   *regexp.Regexp
	used bool
}

func collectWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, _ = strconv.Atoi(m[1])
			}
			args := wantArgRe.FindAllString(m[2], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: want annotation without a quoted pattern", e.Name(), i+1)
			}
			for _, q := range args {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %s: %v", e.Name(), i+1, q, err)
				}
				wants = append(wants, &want{
					file: e.Name(),
					line: i + 1 + offset,
					re:   regexp.MustCompile(pat),
				})
			}
		}
	}
	return wants
}

// checkWants matches diagnostics against annotations one-to-one: every
// diagnostic must be expected, every expectation must fire.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, dir)
	for _, d := range diags {
		rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
		matched := false
		for _, w := range wants {
			if w.used || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(rendered) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}
