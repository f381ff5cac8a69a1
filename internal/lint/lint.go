// Package lint is the project's static-analysis engine: a stdlib-only
// driver (go/parser and go/types over the go command's package list and
// export data — no x/tools) that loads every package in the module and
// checks the source-level invariants the rest of the tooling relies on but
// cannot itself enforce:
//
//   - determinism: chaos traces are byte-identical per seed only if no
//     trace-critical package reads the wall clock, draws from the global
//     math/rand state, or iterates a map in whatever order the runtime
//     picks (det-time, det-rand, det-maporder);
//   - layering: the fabric seam (PR 1) holds only if no collaboration
//     package tunnels around fabric.Endpoint to the substrates
//     (layer-netsim, layer-transport, layer-net);
//   - error discipline: Send, codec and registration errors must be
//     handled or explicitly discarded, never silently dropped (err-drop).
//
// Every rule reads one package at a time, its syntax and types. Properties
// that need the whole program are measured by tests instead: no send under
// a lock by the lock probes in internal/group, internal/session and
// internal/fabric (TestNoSendUnderMemberLock, TestNoSendUnderSessionLocks,
// TestOutboxPerformsUnlocked), locked accessors by the -race accessor tests
// (TestAccessorsDuringTraffic, TestAccessorsDuringTCPTraffic), a callback
// that fires twice by internal/daemon's TestDialedParticipantJoinsTwice,
// and goroutine lifecycles by internal/transport's tests. The module's bug
// ledger (testdata/bugs, `make bugs`) holds each of them to a bug this
// repository shipped. testdata/mutants does the same for det-maporder
// (mutants_test.go puts the bug back into the product source and requires
// exactly that finding).
//
// Diagnostics print as "file:line:col: [rule] message". A finding can be
// suppressed with a directive on the same line or the line above:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory, and a directive that suppresses no finding is
// itself reported; DESIGN.md ("Enforced invariants") documents when a
// suppression is acceptable. Each analyzer is exercised by annotated
// fixture packages under testdata/src (see lint_test.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String formats the diagnostic as file:line:col: [rule] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Package is one loaded, type-checked package as seen by the analyzers.
type Package struct {
	// Path is the import path analyzers scope on. Fixture tests may load a
	// directory under an assumed path to exercise path-dependent rules.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one named rule family. Name may list several rules,
// comma-separated, when one pass reports them all. Run checks one package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetTime(),
		DetRand(),
		DetMapOrder(),
		Layering(),
		ErrDrop(),
	}
}

// Rules returns the set of valid rule names (for directive validation).
func Rules() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		for _, r := range strings.Split(a.Name, ",") {
			m[r] = true
		}
	}
	return m
}

// Check runs every analyzer over each package and returns the surviving
// (non-suppressed) diagnostics sorted by position, plus any malformed or
// unused suppression directives as lint-directive diagnostics.
func Check(pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	rules := Rules()
	ignores := &ignoreSet{at: make(map[ignoreKey]*ignoreDirective)}
	for _, p := range pkgs {
		out = append(out, ignores.collect(p, rules)...)
	}
	for _, a := range Analyzers() {
		for _, p := range pkgs {
			for _, d := range a.Run(p) {
				if !ignores.covers(d) {
					out = append(out, d)
				}
			}
		}
	}
	out = append(out, ignores.unused()...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// --- shared scoping helpers ---------------------------------------------

// modulePrefix is the module path every import-path scope test keys on.
const modulePrefix = "repro"

// inDeterminismScope reports whether the package must be free of wall-clock
// and global-randomness reads. Everything under internal/ is trace-critical
// except the real-TCP transport (a declared real-time boundary); command
// mains are included so daemons cannot absorb wall-clock nondeterminism
// (they inject clocks, e.g. fabric.WallClock, at the edge). Examples are
// demo mains and stay out of scope.
func inDeterminismScope(path string) bool {
	if strings.HasPrefix(path, modulePrefix+"/internal/") {
		return !strings.HasPrefix(path, modulePrefix+"/internal/transport")
	}
	return strings.HasPrefix(path, modulePrefix+"/cmd/")
}

// position is a small helper: the token.Position of a node.
func (p *Package) position(n ast.Node) token.Position {
	return p.Fset.Position(n.Pos())
}
