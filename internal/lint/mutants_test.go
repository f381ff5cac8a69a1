package lint

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutant ledger (testdata/mutants) is the lint rules' share of the
// module's bug ledger (testdata/bugs at the module root, whose entries name a
// test instead of a rule): every entry puts a bug this repository shipped,
// and then fixed, back into today's product source, and names the rule that
// must flag it. An entry whose text no longer occurs exactly once is stale
// and fails, so the ledger moves with the code.
//
// An entry file is a header of "key: value" lines followed by two sections:
//
//	rule: det-maporder
//	file: internal/locks/manager.go
//	want: <substring of the one finding's message>
//	shipped: <the commit that fixed the bug, and what it was>
//	-- old --
//	<text that occurs exactly once in file>
//	-- new --
//	<its replacement>
type mutant struct {
	name                      string
	rule, file, want, shipped string
	old, new                  string
}

func readMutant(t *testing.T, path string) mutant {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(data), "-- old --\n")
	old, repl, ok2 := strings.Cut(rest, "-- new --\n")
	if !ok || !ok2 {
		t.Fatalf("%s: want a header, then -- old -- and -- new -- sections", path)
	}
	mu := mutant{
		name: strings.TrimSuffix(filepath.Base(path), ".txt"),
		old:  strings.TrimSuffix(old, "\n"),
		new:  strings.TrimSuffix(repl, "\n"),
	}
	for _, line := range strings.Split(strings.TrimSpace(head), "\n") {
		key, val, _ := strings.Cut(line, ": ")
		switch key {
		case "rule":
			mu.rule = val
		case "file":
			mu.file = val
		case "want":
			mu.want = val
		case "shipped":
			mu.shipped = val
		default:
			t.Fatalf("%s: unknown header line %q", path, line)
		}
	}
	if mu.rule == "" || mu.file == "" || mu.want == "" || mu.shipped == "" || mu.old == "" {
		t.Fatalf("%s: rule, file, want, shipped and the old text are all required", path)
	}
	if !Rules()[mu.rule] {
		t.Fatalf("%s: no rule %q in the suite", path, mu.rule)
	}
	return mu
}

// TestMutants runs the whole suite once per ledger entry, over the entry's
// package with its file mutated in memory, and requires exactly one finding:
// the entry's rule, in the entry's file. Every rule checks one package at a
// time, so the mutated package is the only one whose findings can change.
func TestMutants(t *testing.T) {
	if raceEnabled {
		// The suite is single-goroutine: the race detector adds 3x the time
		// and nothing the plain run does not check.
		t.Skip("mutant ledger skipped under -race")
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no mutant ledger entries")
	}
	for _, path := range paths {
		mu := readMutant(t, path)
		t.Run(mu.name, func(t *testing.T) {
			diags := checkMutant(t, mu)
			if len(diags) != 1 {
				t.Fatalf("%s (%s): want exactly one finding, got %d: %v", mu.file, mu.shipped, len(diags), diags)
			}
			d := diags[0]
			if d.Rule != mu.rule || d.Pos.Filename != filepath.Join(moduleBase.ModuleRoot, filepath.FromSlash(mu.file)) ||
				!strings.Contains(d.Message, mu.want) {
				t.Errorf("want [%s] %q in %s (%s), got %s", mu.rule, mu.want, mu.file, mu.shipped, d)
			}
		})
	}
}

// checkMutant type-checks mu's package, with mu's file parsed from its
// mutated source, against the shared module load, and runs the suite on it.
func checkMutant(t *testing.T, mu mutant) []Diagnostic {
	t.Helper()
	base, _ := loadModule(t)
	abs := filepath.Join(base.ModuleRoot, filepath.FromSlash(mu.file))
	src, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), mu.old); n != 1 {
		t.Fatalf("stale entry: the old text occurs %d times in %s, want exactly once", n, mu.file)
	}
	mutated := strings.Replace(string(src), mu.old, mu.new, 1)

	var lp *listedPackage
	for _, p := range base.listed {
		if p.Dir == filepath.Dir(abs) {
			lp = p
		}
	}
	if lp == nil {
		t.Fatalf("no package of the module holds %s", mu.file)
	}
	var files []*ast.File
	found := false
	for _, name := range lp.GoFiles {
		filename := filepath.Join(lp.Dir, name)
		var text any
		if filename == abs {
			text, found = mutated, true
		}
		f, err := parser.ParseFile(base.Fset, filename, text, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if !found {
		t.Fatalf("%s is not one of %s's files", mu.file, lp.ImportPath)
	}
	p, err := base.child().checkFiles(lp.ImportPath, files)
	if err != nil {
		t.Fatalf("the mutant does not build: %v", err)
	}
	return Check([]*Package{p})
}
