// Command cscwlint runs the project's static-analysis suite (internal/lint)
// over the module containing the working directory (or the directory given
// as the first argument) and prints one diagnostic per line:
//
//	file:line:col: [rule] message
//
// Usage:
//
//	cscwlint [-rules] [-format=text|sarif|github] [dir] [pkgfilter]
//
// A positional argument that is not a directory is a package-path filter
// (substring of an import path, e.g. "internal/group"): only the matching
// packages are type-checked and reported on, with their imports read from
// export data, and a filter that matches nothing is a usage error.
// A finding is suppressed only by a //lint:ignore directive at its site,
// and a directive that suppresses nothing is itself a finding.
//
// Exit codes, shared with `cscwctl chaos`:
//
//	0  no violations
//	1  at least one live violation
//	2  usage, load or type-check error
//
// The rules — determinism (det-time, det-rand, det-maporder), layering
// (layer-net, layer-transport, layer-netsim) and error discipline
// (err-drop) — are documented in DESIGN.md ("Enforced invariants"),
// together with the //lint:ignore suppression policy. Each rule checks one
// package at a time; what needs the whole program (no send under a lock,
// locked accessors, a callback that fires twice) is measured by tests,
// which the module's bug ledger (testdata/bugs, `make bugs`) holds to the
// bugs they catch.
package main

import (
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	return lint.CLIMain("cscwlint", args, os.Stdout, os.Stderr)
}
