package lint

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// This file is the command-line front-end behind cmd/cscwlint: flags,
// package filtering, output format and exit codes.

// RunConfig configures one lint run over a module.
type RunConfig struct {
	// Dir is any directory inside the module to check (default ".").
	Dir string
	// Filter restricts the run to packages whose import path contains the
	// substring: only those are type-checked from source, with everything
	// they import read from export data. An unmatched filter is an error,
	// not silence.
	Filter string
}

// RunModule loads the module around cfg.Dir (or the packages cfg.Filter
// matches) and runs the full suite. It returns the findings that survived
// //lint:ignore (exit-1 material) and the module root, for relativizing
// paths in output.
func RunModule(cfg RunConfig) (live []Diagnostic, root string, err error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	l, err := NewLoader(dir)
	if err != nil {
		return nil, "", err
	}
	var pkgs []*Package
	if cfg.Filter == "" {
		pkgs, err = l.LoadModule()
	} else {
		pkgs, err = l.loadMatching(cfg.Filter)
	}
	if err != nil {
		return nil, "", err
	}
	return Check(pkgs), l.ModuleRoot, nil
}

// CheckModule loads every package under the module rooted at or above dir
// and runs the suite. The error covers load/parse/type failures (exit 2
// territory for the CLI); diagnostics are the live lint findings (exit 1).
func CheckModule(dir string) ([]Diagnostic, error) {
	live, _, err := RunModule(RunConfig{Dir: dir})
	return live, err
}

// CLIMain is the front-end: parses flags, runs the suite and writes results.
//
//	tool [-rules] [-format=text|sarif|github] [dir] [pkgfilter]
//
// The first positional argument names the module directory when it exists
// on disk, and is otherwise treated as the package-path filter; with two
// arguments they are directory then filter. Exit codes: 0 clean, 1 at
// least one live violation, 2 usage/load/type error.
func CLIMain(tool string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.Bool("rules", false, "list the rules and exit")
	format := fs.String("format", "text", "output format: text, sarif or github")
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
	case "text", "sarif", "github":
	default:
		fmt.Fprintf(stderr, "%s: unknown format %q (text, sarif, github)\n", tool, *format)
		return 2
	}
	var cfg RunConfig
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
	live, root, err := RunModule(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 2
	}
	switch *format {
	case "text":
		WriteText(stdout, live)
	case "sarif":
		if err := WriteSARIF(stdout, root, live); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", tool, err)
			return 2
		}
	case "github":
		WriteGitHub(stdout, root, live)
	}
	if len(live) > 0 {
		fmt.Fprintf(stderr, "%s: %d violation(s)\n", tool, len(live))
		return 1
	}
	return 0
}
