package lint

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file is the shared command-line front-end behind cmd/cscwlint and
// `cscwctl lint`, so the two stay flag-for-flag identical (formats,
// baseline handling, package filtering, exit codes).

// RunConfig configures one lint run over a module.
type RunConfig struct {
	// Dir is any directory inside the module to check (default ".").
	Dir string
	// Filter restricts reporting to packages whose import path contains the
	// substring (the whole module is still loaded — interprocedural facts
	// need every package). An unmatched filter is an error, not silence.
	Filter string
	// Baseline overrides the baseline file; "" uses <module root>/lint.baseline.
	Baseline string
}

// RunResult is one lint run's full outcome.
type RunResult struct {
	// Live are the findings the baseline does not cover (exit-1 material).
	Live []Diagnostic
	// All is every finding before the baseline subtraction — what
	// -format=baseline renders as regeneration candidates.
	All []Diagnostic
	// Baselined counts the findings the baseline absorbed.
	Baselined int
	// Stale lists baseline entries matching no current finding. Only
	// populated for unfiltered runs: a package filter hides findings that
	// may legitimately match an entry.
	Stale []string
	// Root is the module root, for relativizing paths in output.
	Root string
}

// RunModule loads the module around cfg.Dir, runs the full suite, and
// applies the baseline and the package filter.
func RunModule(cfg RunConfig) (*RunResult, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		return nil, err
	}
	diags := Check(pkgs)
	if cfg.Filter != "" {
		diags, err = filterDiags(pkgs, diags, cfg.Filter)
		if err != nil {
			return nil, err
		}
	}
	bpath := cfg.Baseline
	if bpath == "" {
		bpath = filepath.Join(l.ModuleRoot, BaselineFile)
	}
	b, err := LoadBaseline(bpath)
	if err != nil {
		return nil, err
	}
	res := &RunResult{All: diags, Root: l.ModuleRoot}
	res.Live, res.Baselined = b.Filter(l.ModuleRoot, diags)
	if cfg.Filter == "" {
		res.Stale = b.Stale(l.ModuleRoot, diags)
	}
	return res, nil
}

// CheckModule loads every package under the module rooted at or above dir
// and runs the suite, with the module's checked-in baseline applied. The
// error covers load/parse/type failures (exit 2 territory for the CLIs);
// diagnostics are the live lint findings (exit 1).
func CheckModule(dir string) ([]Diagnostic, error) {
	res, err := RunModule(RunConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	return res.Live, nil
}

// filterDiags keeps diagnostics from packages whose import path contains
// filter; a filter matching no loaded package is an error, not silence.
func filterDiags(pkgs []*Package, diags []Diagnostic, filter string) ([]Diagnostic, error) {
	files := make(map[string]bool)
	matched := false
	for _, p := range pkgs {
		if !strings.Contains(p.Path, filter) {
			continue
		}
		matched = true
		for _, f := range p.Files {
			files[p.Fset.Position(f.Pos()).Filename] = true
		}
	}
	if !matched {
		return nil, fmt.Errorf("lint: no loaded package matches %q", filter)
	}
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if files[d.Pos.Filename] {
			out = append(out, d)
		}
	}
	return out, nil
}

// CLIMain is the front-end: parses flags, runs the suite and writes results.
//
//	tool [-rules] [-format=text|json|sarif|github|baseline] [-baseline=file]
//	     [-stale=warn|fail] [dir] [pkgfilter]
//
// The first positional argument names the module directory when it exists
// on disk, and is otherwise treated as the package-path filter; with two
// arguments they are directory then filter. Exit codes: 0 clean, 1 at
// least one live violation, 2 usage/load/type error.
func CLIMain(tool string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.Bool("rules", false, "list the rules and exit")
	format := fs.String("format", "text", "output format: text, json, sarif, github or baseline")
	baseline := fs.String("baseline", "", "baseline file (default <module root>/"+BaselineFile+")")
	stale := fs.String("stale", "warn", "stale baseline entries: warn or fail (CI passes -stale=fail so paid-down debt markers get deleted)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rules {
		for _, a := range Analyzers() {
			fmt.Fprintf(stdout, "%-38s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif", "github", "baseline":
	default:
		fmt.Fprintf(stderr, "%s: unknown format %q (text, json, sarif, github, baseline)\n", tool, *format)
		return 2
	}
	switch *stale {
	case "warn", "fail":
	default:
		fmt.Fprintf(stderr, "%s: unknown -stale mode %q (warn or fail)\n", tool, *stale)
		return 2
	}
	cfg := RunConfig{Baseline: *baseline}
	switch rest := fs.Args(); len(rest) {
	case 0:
	case 1:
		if st, err := os.Stat(rest[0]); err == nil && st.IsDir() {
			cfg.Dir = rest[0]
		} else {
			cfg.Filter = rest[0]
		}
	case 2:
		cfg.Dir, cfg.Filter = rest[0], rest[1]
	default:
		fmt.Fprintf(stderr, "%s: usage: %s [flags] [dir] [pkgfilter]\n", tool, tool)
		return 2
	}
	res, err := RunModule(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 2
	}
	live, root := res.Live, res.Root
	switch *format {
	case "text":
		WriteText(stdout, live)
	case "json":
		if err := WriteJSON(stdout, root, live); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
			return 2
		}
	case "sarif":
		if err := WriteSARIF(stdout, root, live); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
			return 2
		}
	case "github":
		WriteGitHub(stdout, root, live)
	case "baseline":
		// Regeneration mode: render every current finding (including the
		// already-baselined ones) as lint.baseline candidate lines and exit
		// 0 — the output is input to a human edit, not a gate.
		fmt.Fprint(stdout, (&Baseline{}).Render(root, res.All))
		fmt.Fprintf(stderr, "%s: %d baseline candidate(s)\n", tool, len(res.All))
		return 0
	}
	severity := "warning"
	if *stale == "fail" {
		severity = "error"
	}
	for _, s := range res.Stale {
		fmt.Fprintf(stderr, "%s: %s: stale baseline entry (no finding matches): %s\n", tool, severity, s)
	}
	if *stale == "fail" && len(res.Stale) > 0 && len(live) == 0 {
		fmt.Fprintf(stderr, "%s: %d stale baseline entry(s); delete the paid-down lines from the baseline\n", tool, len(res.Stale))
		return 1
	}
	if len(live) > 0 {
		fmt.Fprintf(stderr, "%s: %d violation(s)", tool, len(live))
		if res.Baselined > 0 {
			fmt.Fprintf(stderr, " (%d more baselined)", res.Baselined)
		}
		fmt.Fprintln(stderr)
		return 1
	}
	if res.Baselined > 0 {
		fmt.Fprintf(stderr, "%s: clean (%d finding(s) baselined)\n", tool, res.Baselined)
	}
	return 0
}
