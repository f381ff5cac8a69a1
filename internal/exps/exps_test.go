package exps

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// These tests assert the *shape* of each experiment's result — the paper's
// qualitative claims — not absolute numbers, which depend on link profiles.

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(s)
	if err != nil {
		t.Fatalf("parse duration %q: %v", s, err)
	}
	return d
}

func parseInt(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.Fields(s)[0])
	if err != nil {
		t.Fatalf("parse int %q: %v", s, err)
	}
	return n
}

func cell(tb Table, row, col int) string { return tb.Rows[row][col] }

func TestF1QuadrantOrdering(t *testing.T) {
	tb := RunF1SpaceTime(1)
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	means := make([]time.Duration, 4)
	for i := 0; i < 4; i++ {
		means[i] = parseDur(t, cell(tb, i, 2))
	}
	if !(means[0] < means[1] && means[1] < means[2] && means[2] <= means[3]) {
		t.Errorf("quadrant ordering violated: %v", means)
	}
	flushItems := parseInt(t, cell(tb, 4, 4))
	rebuildItems := parseInt(t, cell(tb, 5, 4))
	if flushItems >= rebuildItems {
		t.Errorf("flush moved %d items, rebuild %d — flush should move fewer", flushItems, rebuildItems)
	}
}

func TestF1Deterministic(t *testing.T) {
	a := RunF1SpaceTime(42)
	b := RunF1SpaceTime(42)
	if a.Render() != b.Render() {
		t.Error("same seed should reproduce identical tables")
	}
}

func TestF2WallsVsFlow(t *testing.T) {
	tb := RunF2WallsVsFlow(1)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	wallsBlocked := parseInt(t, cell(tb, 0, 3))
	flowBlocked := parseInt(t, cell(tb, 1, 3))
	if wallsBlocked == 0 {
		t.Error("walls mode should block under contention")
	}
	if flowBlocked != 0 {
		t.Error("flow mode must never block")
	}
	wallsAware := parseInt(t, cell(tb, 0, 5))
	flowAware := parseInt(t, cell(tb, 1, 5))
	if wallsAware != 0 || flowAware == 0 {
		t.Errorf("awareness: walls=%d flow=%d", wallsAware, flowAware)
	}
	if parseDur(t, cell(tb, 1, 2)) != 0 {
		t.Error("flow response should be zero")
	}
	if parseDur(t, cell(tb, 0, 2)) == 0 {
		t.Error("walls response should be positive")
	}
	wallsOps := parseInt(t, cell(tb, 0, 1))
	flowOps := parseInt(t, cell(tb, 1, 1))
	if wallsOps != flowOps {
		t.Errorf("both modes should complete the same ops: %d vs %d", wallsOps, flowOps)
	}
}

func TestE3GranularityMonotone(t *testing.T) {
	tb := RunE3Granularity(1)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var rates []float64
	var lockOps []int
	for i := range tb.Rows {
		r := strings.TrimSuffix(cell(tb, i, 2), "%")
		f, err := strconv.ParseFloat(r, 64)
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, f)
		lockOps = append(lockOps, parseInt(t, cell(tb, i, 5)))
	}
	for i := 1; i < len(rates); i++ {
		if rates[i] > rates[i-1] {
			t.Errorf("conflict rate should fall with finer grain: %v", rates)
		}
		if lockOps[i] <= lockOps[i-1] {
			t.Errorf("lock overhead should rise with finer grain: %v", lockOps)
		}
	}
	if rates[0] < 50 {
		t.Errorf("document-level locking should conflict heavily, got %.1f%%", rates[0])
	}
}

func TestE4MechanismShapes(t *testing.T) {
	tb := RunE4Mechanisms(1)
	byName := map[string][]string{}
	for _, r := range tb.Rows {
		byName[r[0]] = r
	}
	if parseDur(t, byName["operation transform"][1]) != 0 {
		t.Error("OT response must be zero (operations proceed immediately)")
	}
	if parseDur(t, byName["soft"][1]) != 0 {
		t.Error("soft locks never block")
	}
	pess := parseDur(t, byName["pessimistic"][1])
	flr := parseDur(t, byName["floor reservation"][1])
	if flr <= pess {
		t.Errorf("floor reservation (%v) should cost more than paragraph locks (%v)", flr, pess)
	}
	if !strings.Contains(byName["tickle"][5], "revoked") || strings.HasPrefix(byName["tickle"][5], "0 revoked") {
		t.Errorf("tickle should dispossess idle holders: %q", byName["tickle"][5])
	}
	if byName["pessimistic"][3] != "none" {
		t.Error("pessimistic awareness signal should be none")
	}
}

// TestE4OTConverges: the OT row runs the shipped engine, and its verdict is
// measured. At seeds 7 and 42 the WAN jitter reorders commits enough that a
// client which drops an out-of-order commit never catches up.
func TestE4OTConverges(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		if got := runOTMechanism(seed)[5]; !strings.HasSuffix(got, " ops, all converge") {
			t.Errorf("seed %d: OT row says %q, want all converge", seed, got)
		}
	}
}

func TestE5RoleCompression(t *testing.T) {
	tb := RunE5Access(1)
	// Row 1: group policy change.
	if !strings.Contains(cell(tb, 1, 1), "24") {
		t.Errorf("matrix churn = %q, want 24 writes", cell(tb, 1, 1))
	}
	if !strings.Contains(cell(tb, 1, 2), "1 role edit") {
		t.Errorf("role churn = %q", cell(tb, 1, 2))
	}
	if !strings.Contains(cell(tb, 2, 3), "true") {
		t.Errorf("dynamic role change outcome = %q", cell(tb, 2, 3))
	}
	if !strings.Contains(cell(tb, 4, 3), "granted") {
		t.Errorf("negotiation outcome = %q", cell(tb, 4, 3))
	}
}

func TestE6QoSShapes(t *testing.T) {
	tb := RunE6StreamQoS(1)
	if parseInt(t, cell(tb, 0, 2)) != 0 {
		t.Error("good link should not renegotiate")
	}
	if parseInt(t, cell(tb, 1, 2)) < 1 {
		t.Error("degraded link should renegotiate at least once")
	}
	if !strings.Contains(cell(tb, 1, 5), "detected") {
		t.Errorf("degradation detection missing: %q", cell(tb, 1, 5))
	}
	// Lip sync rows: extract "max skew X".
	skew := func(row int) time.Duration {
		s := strings.TrimPrefix(cell(tb, row, 5), "max skew ")
		return parseDur(t, s)
	}
	if skew(3) >= skew(2) {
		t.Errorf("synced skew %v should beat unsynced %v", skew(3), skew(2))
	}
	// Jitter buffer: late drops fall with depth.
	late := func(row int) int {
		parts := strings.Split(cell(tb, row, 4), "+")
		n, _ := strconv.Atoi(parts[1])
		return n
	}
	if !(late(4) >= late(5) && late(5) >= late(6)) {
		t.Errorf("late drops should fall with buffer depth: %d %d %d", late(4), late(5), late(6))
	}
}

func TestE7OrderingCosts(t *testing.T) {
	tb := RunE7Groups(1)
	byKey := map[string]time.Duration{}
	for _, r := range tb.Rows {
		if len(r) >= 3 && r[2] != "-" {
			byKey[r[0]+"/"+r[1]] = parseDur(t, r[2])
		}
	}
	if !(byKey["fifo/4"] <= byKey["total-sequencer/4"]) {
		t.Errorf("fifo %v should beat total %v", byKey["fifo/4"], byKey["total-sequencer/4"])
	}
	if !(byKey["causal/16"] <= byKey["total-sequencer/16"]) {
		t.Errorf("causal %v should beat total %v", byKey["causal/16"], byKey["total-sequencer/16"])
	}
	var sawStall, sawPartial, sawAll bool
	for _, r := range tb.Rows {
		if strings.Contains(r[4], "stalled") {
			sawStall = true
		}
		if strings.Contains(r[4], "7/8 replies at deadline") {
			sawPartial = true
		}
		if r[0] == "group RPC, no partition" && strings.HasPrefix(r[4], "8/8 replies (") {
			sawAll = true
		}
	}
	if !sawStall || !sawPartial || !sawAll {
		t.Error("group RPC rows missing the all-answered, stall or deadline outcome")
	}
}

func TestE8PlacementShapes(t *testing.T) {
	tb := RunE8Placement(1)
	worst := map[string]time.Duration{}
	migr := map[string]int{}
	for _, r := range tb.Rows {
		key := r[0] + "/" + r[1]
		worst[key] = parseDur(t, r[2])
		migr[key] = parseInt(t, r[4])
	}
	ff := worst["first-fit/phase 2 (nyc+syd group)"]
	ga := worst["group-aware/phase 2 (nyc+syd group)"]
	if ga >= ff {
		t.Errorf("group-aware phase-2 worst RTT %v should beat first-fit %v", ga, ff)
	}
	if migr["group-aware/phase 2 (nyc+syd group)"] != 1 {
		t.Error("group-aware should migrate exactly once on the usage shift")
	}
	if migr["first-fit/phase 2 (nyc+syd group)"] != 0 {
		t.Error("first-fit must not migrate")
	}
}

func TestE9MobilityShapes(t *testing.T) {
	tb := RunE9Mobility(1)
	// Hoard sweep rows 0..3: reads ok = coverage.
	wantOK := []string{"0/40", "10/40", "20/40", "40/40"}
	for i, w := range wantOK {
		if cell(tb, i, 1) != w {
			t.Errorf("hoard row %d reads = %q, want %q", i, cell(tb, i, 1), w)
		}
	}
	// Conflict growth rows 4..6 nondecreasing.
	prev := -1
	for i := 4; i <= 6; i++ {
		c := parseInt(t, cell(tb, i, 3))
		if c < prev {
			t.Errorf("conflicts should not shrink with longer disconnection: row %d = %d", i, c)
		}
		prev = c
	}
	if !strings.Contains(cell(tb, 7, 5), "reassigned to other crew") {
		t.Errorf("bulk update row = %q", cell(tb, 7, 5))
	}
}

func TestE10WorkflowShapes(t *testing.T) {
	tb := RunE10Workflow(1)
	rate := func(row int) float64 {
		f, err := strconv.ParseFloat(strings.TrimSuffix(cell(tb, row, 3), "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if rate(0) <= 0 {
		t.Error("speech-act model should reject improvised acts")
	}
	if rate(1) <= 0 {
		t.Error("procedural model should reject out-of-order steps")
	}
	if rate(2) != 0 {
		t.Error("informal model must not reject member acts")
	}
}

func TestA1AblationGradient(t *testing.T) {
	tb := RunA1AwarenessAblation(1)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	prec := func(row int) float64 {
		f, err := strconv.ParseFloat(strings.TrimSuffix(cell(tb, row, 3), "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// Precision strictly improves: broadcast < spatial < temporal < full.
	for i := 1; i < 4; i++ {
		if prec(i) <= prec(i-1) {
			t.Errorf("precision should improve per term: row %d %.1f <= row %d %.1f", i, prec(i), i-1, prec(i-1))
		}
	}
	// Recall stays perfect in every configuration of this workload.
	for i := 0; i < 4; i++ {
		if cell(tb, i, 4) != "100.0%" {
			t.Errorf("recall row %d = %q", i, cell(tb, i, 4))
		}
	}
}

func TestA2HoardPolicies(t *testing.T) {
	tb := RunA2HoardPolicies(1)
	if cell(tb, 0, 3) != "100.0%" {
		t.Errorf("explicit hoard availability = %q", cell(tb, 0, 3))
	}
	if cell(tb, 1, 3) != "40.0%" {
		t.Errorf("incidental availability = %q", cell(tb, 1, 3))
	}
	if cell(tb, 2, 3) != "50.0%" {
		t.Errorf("LRU-capped availability = %q", cell(tb, 2, 3))
	}
}

func TestAllRegistryRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is exercised by the individual shape tests")
	}
	for _, e := range All() {
		tb := e.Run(2) // a different seed than the shape tests
		if tb.ID != e.ID {
			t.Errorf("experiment %s returned table %s", e.ID, tb.ID)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("experiment %s produced no rows", e.ID)
		}
		if tb.Render() == "" {
			t.Errorf("experiment %s rendered empty", e.ID)
		}
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := Table{
		ID: "X", Title: "t", Claim: "c",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"wide-cell-value", "1"}},
		Notes:   []string{"n"},
	}
	out := tb.Render()
	for _, want := range []string{"== X: t ==", "claim: c", "wide-cell-value", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
