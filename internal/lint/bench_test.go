package lint

import (
	"runtime"
	"testing"
)

// The Makefile's `make lint` gate must stay interactive (< 10s wall on the
// CI runners). Loading and type-checking the module dominates; the analysis
// passes themselves are benchmarked separately so a regression in either
// half is attributable.

// BenchmarkCheckModule times one full CLI-equivalent run: load, type-check
// and every analyzer.
func BenchmarkCheckModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		diags, err := CheckModule(".")
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repo not clean: %v", diags[0])
		}
	}
}

// BenchmarkAnalyzers times the analysis passes alone, over an
// already-loaded module.
func BenchmarkAnalyzers(b *testing.B) {
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Check(pkgs)
	}
}

// TestLintWallTime is the complexity gate behind `make lint`: one full
// CheckModule — load, type-check, all analysis stages — must stay within a
// budget of heap objects allocated. Allocation count tracks the work done
// (an analysis going quadratic multiplies it) and, unlike seconds,
// does not depend on how fast or how busy the machine is. Imports from
// outside the module are read from export data, so nearly all of the count
// is the module's own parsing, type-checking and analysis. Seconds are
// reported by the lint_wall_ms benchmark row instead.
func TestLintWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("lint cost gate skipped in -short")
	}
	if raceEnabled {
		// Same count, 4-5x the time: nothing the plain run does not cover.
		t.Skip("lint cost gate skipped under -race")
	}
	// About twice the 0.51M measured with the standard library read from
	// export data and every rule checking one package at a time (go1.24,
	// this module at ~22k non-test lines; 1.42M while three rules ran on a
	// module-wide call graph); growing the module grows it linearly.
	const budget = 1_000_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := CheckModule("."); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > budget {
		t.Errorf("make lint equivalent allocated %d objects, budget %d — an analysis stage's cost has outgrown the module", mallocs, budget)
	} else {
		t.Logf("CheckModule allocated %d objects (budget %d)", mallocs, budget)
	}
}
