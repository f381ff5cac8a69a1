// Package exps contains the experiment harnesses that regenerate, in
// quantitative form, every figure and claim of the paper (see DESIGN.md §3
// for the index). Each experiment is a pure function from a seed to a
// Table; cmd/experiments prints them all and the root bench_test.go wraps
// each as a testing.B benchmark.
//
// All experiments run over the deterministic virtual-time simulator, so the
// numbers are exactly reproducible for a given seed.
package exps

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result in the paper's row/column form.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim the experiment operationalises
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func(seed int64) Table
}

// All returns every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{ID: "F1", Name: "space-time matrix", Run: RunF1SpaceTime},
		{ID: "F2", Name: "walls vs information flow", Run: RunF2WallsVsFlow},
		{ID: "E3", Name: "lock granularity", Run: RunE3Granularity},
		{ID: "E4", Name: "concurrency mechanisms", Run: RunE4Mechanisms},
		{ID: "E5", Name: "access control", Run: RunE5Access},
		{ID: "E6", Name: "stream QoS", Run: RunE6StreamQoS},
		{ID: "E7", Name: "group communication", Run: RunE7Groups},
		{ID: "E8", Name: "placement & migration", Run: RunE8Placement},
		{ID: "E9", Name: "mobility", Run: RunE9Mobility},
		{ID: "E10", Name: "workflow prescriptiveness", Run: RunE10Workflow},
		{ID: "A1", Name: "awareness weighting ablation", Run: RunA1AwarenessAblation},
		{ID: "A2", Name: "hoard-policy ablation", Run: RunA2HoardPolicies},
	}
}

// fmtDur renders a duration with millisecond precision for tables.
func fmtDur(d time.Duration) string {
	return d.Round(100 * time.Microsecond).String()
}

// fmtPct renders a ratio as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
