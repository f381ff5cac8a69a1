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
// (substring of an import path, e.g. "internal/group"); reporting is
// restricted to matching packages while the whole module is still loaded,
// since the interprocedural analyzers need every call summary. A finding
// is suppressed only by a //lint:ignore directive at its site, and a
// directive that suppresses nothing is itself a finding.
//
// Exit codes, shared with `cscwctl chaos`:
//
//	0  no violations
//	1  at least one live violation
//	2  usage, load or type-check error
//
// The rules — determinism (det-time, det-rand, det-maporder), layering
// (layer-net, layer-transport, layer-netsim), lock hygiene (block-lock),
// channel protocol (chan-proto), guarded-field inference (guard-infer) and
// error discipline (err-drop) — are documented in DESIGN.md ("Enforced
// invariants"), together with the //lint:ignore suppression policy and the
// mutant ledger that keeps each interprocedural rule.
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
