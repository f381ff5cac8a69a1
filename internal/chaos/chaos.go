// Package chaos is a deterministic, seed-reproducible fault-injection
// harness for the CSCW stack. Each Scenario scripts a storm of adversity —
// partitions and heals, message loss and jitter bursts, node crash/restart,
// link-level reordering, stalled application handlers — against *real*
// subsystems (group multicast, sessions, OT documents, transaction groups)
// running over the fabric seam on the netsim virtual network, and then
// checks cross-layer invariants: convergence, agreement, serialisability,
// and zero unaccounted message drops.
//
// Everything is driven by one seed. The same seed produces a byte-identical
// event trace, so any invariant violation is one command away from being
// replayed: the report prints the seed and the exact `go test` and `cscwctl
// chaos` invocations that reproduce it.
//
// The paper (§5) argues that CSCW stresses exactly the parts of ODP that
// are hardest — partial failure, mobility, cooperative information flow
// against transaction walls. This harness is those claims made executable.
package chaos

import (
	"fmt"
	"sort"
	"time"
)

// Scenario is one scripted fault schedule plus the invariants it checks.
// Run drives the world through virtual time and records violations on it.
type Scenario struct {
	Name string
	// Desc is a one-line description of the fault schedule.
	Desc string
	// Invariant names what the scenario asserts afterwards.
	Invariant string
	// Challenge maps the scenario to the paper §5 challenge it exercises.
	Challenge string
	// Broken marks a scenario that deliberately violates its invariant, so
	// the harness's own violation reporting can be tested end to end. Broken
	// scenarios are excluded from Matrix.
	Broken bool
	Run    func(w *World)
}

// registry holds all scenarios by name; populated in scenarios.go.
var registry = map[string]Scenario{}

func register(s Scenario) { registry[s.Name] = s }

// Scenarios returns every registered scenario (including broken ones),
// sorted by name.
func Scenarios() []Scenario {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]Scenario, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Violation is one failed invariant check.
type Violation struct {
	Invariant string
	Detail    string
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario   string
	Seed       int64
	Elapsed    time.Duration // final virtual time
	Trace      []byte        // the deterministic event trace
	Violations []Violation
}

// OK reports whether every invariant held.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// ReplayScript returns the minimized one-command reproductions for this
// run: the CI test filter and the cscwctl invocation, both pinned to the
// seed that produced it.
func (r *Result) ReplayScript() string {
	return fmt.Sprintf(
		"go test ./internal/chaos -run 'TestChaosScenarios/%s' -chaos.seed=%d -v\ncscwctl chaos -scenario %s -seed %d -v",
		r.Scenario, r.Seed, r.Scenario, r.Seed)
}

// Report renders the outcome. On violation it includes the seed and the
// replay script, making the failure one-command reproducible.
func (r *Result) Report() string {
	if r.OK() {
		return fmt.Sprintf("chaos: scenario %q seed %d ok (virtual time %v)", r.Scenario, r.Seed, r.Elapsed)
	}
	out := fmt.Sprintf("chaos: INVARIANT VIOLATION in scenario %q (seed %d)\n", r.Scenario, r.Seed)
	for _, v := range r.Violations {
		out += fmt.Sprintf("  [%s] %s\n", v.Invariant, v.Detail)
	}
	out += "replay with:\n  " + r.ReplayScript()
	return out
}

// Run executes the named scenario with the given seed and returns its
// result.
func Run(name string, seed int64) (*Result, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown scenario %q (see cscwctl chaos -list)", name)
	}
	return run(s, seed), nil
}

func run(s Scenario, seed int64) *Result {
	w := newWorld(seed)
	w.Logf("scenario %s seed %d: %s", s.Name, seed, s.Desc)
	s.Run(w)
	w.finish()
	return &Result{
		Scenario:   s.Name,
		Seed:       seed,
		Elapsed:    w.Sim.Now(),
		Trace:      w.trace.bytes(),
		Violations: w.violations,
	}
}
