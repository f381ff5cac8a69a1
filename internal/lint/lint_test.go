package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fixtures.golden from this run")

// Fixture packages under testdata/src, each loaded under an assumed import
// path so the path-scoped rules see what they would in the real tree. Every
// analyzer has both failing fixtures (annotated with // want) and passing
// ones (idioms the rules must accept).
var fixtures = []struct {
	dir  string
	path string
}{
	{"det", "repro/internal/fixture/det"},
	{"locks", "repro/internal/fixture/locks"},
	{"errs", "repro/internal/fixture/errs"},
	{"layer", "repro/internal/collab"},
	{"layer_ok", "repro/internal/fabric"},
	{"ignore", "repro/internal/fixture/ignore"},
	{"scope", "repro/examples/fixturescope"},
	{"lockorder", "repro/internal/fixture/lockorder"},
	{"lifeleak", "repro/internal/transport"},
	{"guard", "repro/internal/fixture/guard"},
	{"lockedge", "repro/internal/fixture/lockedge"},
	{"hotalloc", "repro/internal/fixture/hotalloc"},
	{"wirecompat", "repro/internal/fixture/wirecompat"},
	{"atomicmix", "repro/internal/fixture/atomicmix"},
	{"blocklock", "repro/internal/fixture/blocklock"},
	{"chanproto", "repro/internal/fixture/chanproto"},
	{"shutdownprop", "repro/internal/fixture/shutdownprop"},
	{"chansubst", "repro/internal/fixture/chansubst"},
}

// fixtureBase is the one loader whose FileSet, build context and stdlib
// source importer every fixture shares, so the standard library is
// type-checked once per test binary instead of once per fixture.
var (
	fixtureBase *Loader
	fixtureMemo = make(map[string][]Diagnostic)
)

// fixtureDiags loads one fixture and runs the full suite over it, memoized
// so TestFixtures and TestFixturesGolden pay for each fixture once. Each
// fixture gets its own `loaded` map: packages memoize by import path, and a
// fixture loaded under a real package's path (lifeleak assumes the
// transport's) must not collide with the real package pulled in by another
// fixture's imports.
func fixtureDiags(t *testing.T, dir, path string) []Diagnostic {
	t.Helper()
	if diags, ok := fixtureMemo[dir]; ok {
		return diags
	}
	if fixtureBase == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		fixtureBase = l
	}
	l := &Loader{
		ModuleRoot: fixtureBase.ModuleRoot,
		ModulePath: fixtureBase.ModulePath,
		Fset:       fixtureBase.Fset,
		ctxt:       fixtureBase.ctxt,
		std:        fixtureBase.std,
		loaded:     make(map[string]*Package),
	}
	p, err := l.LoadDir(dir, path)
	if err != nil {
		t.Fatalf("load %s as %s: %v", dir, path, err)
	}
	fixtureMemo[dir] = Check([]*Package{p})
	return fixtureMemo[dir]
}

func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.dir)
			checkWants(t, dir, fixtureDiags(t, dir, fx.path))
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
		dir := filepath.Join("testdata", "src", fx.dir)
		for _, d := range fixtureDiags(t, dir, fx.path) {
			d.Pos.Filename = filepath.ToSlash(d.Pos.Filename)
			got.WriteString(d.String() + "\n")
		}
	}
	golden := filepath.Join("testdata", "fixtures.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	inWant, inGot := make(map[string]bool), make(map[string]bool)
	for _, l := range strings.Split(string(want), "\n") {
		inWant[l] = true
	}
	for _, l := range strings.Split(got.String(), "\n") {
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
	t.Errorf("fixture diagnostics differ from %s; if the change is intended: make lint-golden", golden)
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
