package lint

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// Fixture packages under testdata/src, each loaded under an assumed import
// path so the path-scoped rules see what they would in the real tree. Every
// analyzer has both failing fixtures (annotated with // want) and passing
// ones (idioms the rules must accept).
var fixtures = []fixture{
	{"det", "repro/internal/fixture/det"},
	{"errs", "repro/internal/fixture/errs"},
	{"layer", "repro/internal/collab"},
	{"layer_ok", "repro/internal/fabric"},
	{"ignore", "repro/internal/fixture/ignore"},
	{"scope", "repro/examples/fixturescope"},
}

type fixture struct {
	dir  string
	path string
}

// The module is listed, loaded and type-checked once per test binary, and
// every test but TestLintWallTime (whose subject is that load) shares it:
// TestRepoIsClean checks it, TestHotpathFunctionsArePinned reads its
// listing, TestMutants re-checks one mutated package against it, and every
// fixture is type-checked through its listing and export-data importer. A
// fixture may import only what the module's packages import: nothing else
// has export data listed.
var (
	moduleOnce sync.Once
	moduleBase *Loader
	modulePkgs []*Package
	moduleErr  error

	fixturePkgs = make(map[string]*Package)
	fixtureMemo = make(map[string][]Diagnostic)
)

// loadModule returns the shared loader and the module's packages.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	moduleOnce.Do(func() {
		if moduleBase, moduleErr = NewLoader("."); moduleErr == nil {
			modulePkgs, moduleErr = moduleBase.LoadModule()
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleBase, modulePkgs
}

// child is a loader that shares base's FileSet, listing and importer, and
// starts from a copy of its type-checked packages, so what it checks is
// memoized in the copy and never replaces the shared module's packages.
func (base *Loader) child() *Loader {
	return &Loader{
		ModuleRoot: base.ModuleRoot,
		Fset:       base.Fset,
		listed:     base.listed,
		std:        base.std,
		loaded:     maps.Clone(base.loaded),
	}
}

// fixturePkg loads one fixture, memoized: every .go file in its directory,
// type-checked as its assumed path. Each fixture gets its own child loader:
// a fixture loaded under a real package's path (layer_ok assumes fabric's)
// must not replace the real package that other imports resolve to.
func fixturePkg(t *testing.T, fx fixture) *Package {
	t.Helper()
	if p, ok := fixturePkgs[fx.dir]; ok {
		return p
	}
	base, _ := loadModule(t)
	files, err := filepath.Glob(filepath.Join("testdata", "src", fx.dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := base.child().check(fx.path, files)
	if err != nil {
		t.Fatalf("load %s as %s: %v", fx.dir, fx.path, err)
	}
	fixturePkgs[fx.dir] = p
	return p
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
// TestFixtures matches // want regexps, which a drifting message slips
// through; this compares the full rendering (file:line:col: [rule]
// message) against testdata/fixtures.golden. `make lint-golden` (-update)
// rewrites the file.
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
// reverted (a reintroduced time.Now, an unsorted map walk).
func TestRepoIsClean(t *testing.T) {
	_, pkgs := loadModule(t)
	for _, d := range Check(pkgs) {
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
