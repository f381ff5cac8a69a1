package lint

import (
	"runtime"
	"testing"
)

// The Makefile's `make lint` gate must stay interactive (< 10s wall on the
// CI runners). Loading and type-checking the module dominates; the analysis
// passes themselves are benchmarked separately so a regression in either
// half is attributable.

// BenchmarkCheckModule times one full CLI-equivalent run: load, type-check,
// every per-package and interprocedural analyzer.
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

// BenchmarkDataflowStage times only the CFG + def-use analyzers added in
// the dataflow stage (hot-alloc, wire-compat, atomic-mix), so a regression
// there is attributable separately from the older module passes.
func BenchmarkDataflowStage(b *testing.B) {
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		b.Fatal(err)
	}
	m := NewModule(pkgs)
	stage := []*ModuleAnalyzer{HotAlloc(), WireCompat(), AtomicMix()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range stage {
			a.Run(m)
		}
	}
}

// BenchmarkConcStage times the stage-4 concurrency call graph and its three
// analyzers (block-lock, chan-proto, shutdown-prop) alone. The cached graph
// is rebuilt each iteration, so the number is the marginal cost stage 4
// added to `make lint` over an already-summarized module.
func BenchmarkConcStage(b *testing.B) {
	l, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := l.LoadModule()
	if err != nil {
		b.Fatal(err)
	}
	m := NewModule(pkgs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ConcStage()
	}
}

// TestLintWallTime is the complexity gate behind `make lint`: one full
// CheckModule — load, type-check, all analysis stages — must stay within a
// budget of heap objects allocated. Allocation count tracks the work done
// (a dataflow fixpoint going quadratic multiplies it) and, unlike seconds,
// does not depend on how fast or how busy the machine is: most of the wall
// time is the source importer type-checking the standard library, which a
// loaded 2-vCPU box stretches past any fixed limit. Seconds are reported by
// the lint_wall_ms benchmark row instead.
func TestLintWallTime(t *testing.T) {
	if testing.Short() {
		t.Skip("lint cost gate skipped in -short")
	}
	if raceEnabled {
		// Same count, 4-5x the time: nothing the plain run does not cover.
		t.Skip("lint cost gate skipped under -race")
	}
	// Twice the 7.7M measured when the gate was introduced (go1.24, this
	// module at ~30k lines); growing the module grows it linearly.
	const budget = 15_400_000
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
