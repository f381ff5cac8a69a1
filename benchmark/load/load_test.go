package load

import (
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/session"
)

func TestPercentileMedianSpread(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median(9,1,5) = %v, want 5", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := Spread([]float64{90, 100, 120}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Spread(90,100,120) = %v, want 0.3", got)
	}
	if got := Spread([]float64{8, 1, 5, 3, 4, 6, 2, 7}); math.Abs(got-4/4.5) > 1e-12 {
		t.Errorf("Spread(1..8) = %v, want (6-2)/4.5: the quartiles by nearest rank over the median", got)
	}
	if got := Spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Spread of zeros = %v, want 0", got)
	}
	if got := sortedMs([]int64{3e6, 1e6, 2e6}); !reflect.DeepEqual(got, []float64{1, 2, 3}) {
		t.Errorf("sortedMs = %v", got)
	}
}

func TestT0Rule(t *testing.T) {
	const ms = time.Millisecond
	for _, c := range []struct{ issued, due, want time.Duration }{
		{10 * ms, 10 * ms, 10 * ms}, // on time
		{10*ms + 600*time.Microsecond, 10 * ms, 10*ms + 600*time.Microsecond}, // timer jitter: not charged
		{12 * ms, 10 * ms, 12 * ms}, // exactly the slack
		{19 * ms, 10 * ms, 12 * ms}, // a stall's backlog: charged from due + 2 ms
	} {
		if got := T0(c.issued, c.due); got != c.want {
			t.Errorf("T0(issued %v, due %v) = %v, want %v", c.issued, c.due, got, c.want)
		}
	}
}

// A hand-built tree on one node and op:
//
//	root    [0,100]
//	  a     [10,40]
//	    a1  [15,25]
//	  b     [50,90]  and b2 [80,120] overlaps b and outlives root (a flush
//	                 handed to another goroutine)
//
// plus a span of another op that must stay out of the tree.
func TestSpanSelfTimes(t *testing.T) {
	k := Key{Site: "p0", Seq: 7}
	spans := []Span{
		{Node: "host", Name: "b2", Key: k, Start: 80, End: 120},
		{Node: "host", Name: "a1", Key: k, Start: 15, End: 25},
		{Node: "host", Name: "root", Key: k, Start: 0, End: 100},
		{Node: "host", Name: "b", Key: Key{Site: "p0", Seq: 7, Leg: legOrdered}, Start: 50, End: 90},
		{Node: "host", Name: "other", Key: Key{Site: "p1", Seq: 7}, Start: 20, End: 30},
		{Node: "host", Name: "a", Key: k, Start: 10, End: 40},
	}
	resolveParents(spans)
	byName := map[string]int{}
	for i, s := range spans {
		byName[s.Name] = i
	}
	parent := func(name string) string {
		if p := spans[byName[name]].Parent; p >= 0 {
			return spans[p].Name
		}
		return ""
	}
	for name, want := range map[string]string{"root": "", "a": "root", "a1": "a", "b": "root", "b2": "b", "other": ""} {
		if got := parent(name); got != want {
			t.Errorf("parent of %s = %q, want %q", name, got, want)
		}
	}
	self := selfTimes(spans)
	// root: 100 − a(30) − b(40) = 30; b2 is b's child. b: 40 − the 10 of b2
	// inside it. b2 keeps all 40 of its own.
	for name, want := range map[string]int64{"root": 30, "a": 20, "a1": 10, "b": 30, "b2": 40, "other": 10} {
		if got := self[byName[name]]; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
	if got := covered([][2]int64{{0, 10}, {5, 20}, {40, 60}}, 8, 50); got != 22 {
		t.Errorf("covered = %d, want 22 (8..20 and 40..50)", got)
	}
}

func TestScriptDeterminism(t *testing.T) {
	a, b := Script(42, 1000), Script(42, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different scripts")
	}
	if reflect.DeepEqual(a, Script(43, 1000)) {
		t.Fatal("different seeds gave the same script")
	}
}

// TestScriptStaysInRange plays a 20 000-op script over four CRDT replicas
// whose remote ops arrive late and in bursts, resolving every position through
// the length tracker alone: no Insert or Delete may ever be out of range, and
// the documents must stay near targetLen.
func TestScriptStaysInRange(t *testing.T) {
	const n, nOps = 4, 20000
	type site struct {
		doc    engine.Doc
		length lengthTracker
		inbox  []any // payloads not yet applied, in log order
	}
	sites := make([]*site, n)
	for i := range sites {
		d, err := engine.New(engine.CRDT, "doc", string(rune('a'+i)), session.HostAuthor)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = &site{doc: d}
	}
	drain := func(s *site, upTo int) {
		for ; upTo > 0 && len(s.inbox) > 0; upTo-- {
			if _, err := s.doc.Apply("", s.inbox[0]); err != nil {
				t.Fatal(err)
			}
			_, _, insert := opOf(s.inbox[0])
			s.length.applied(insert, s.doc.Text)
			s.inbox = s.inbox[1:]
		}
	}
	maxLen := 0
	for i, d := range Script(7, nOps) {
		s := sites[i%n]
		drain(s, int(d.Pos*7)) // a burst of 0–6 pending remote ops lands first
		insert, pos := s.length.resolve(d)
		var msgs []engine.Msg
		var err error
		if insert {
			msgs, err = s.doc.Insert(pos, d.Ch)
		} else {
			msgs, err = s.doc.Delete(pos)
		}
		if err != nil {
			t.Fatalf("op %d (insert=%v pos=%d, bound %d): %v", i, insert, pos, s.length.bound, err)
		}
		for _, other := range sites {
			if other != s {
				other.inbox = append(other.inbox, msgs[0].Body)
			}
		}
		maxLen = max(maxLen, len(s.doc.Text()))
	}
	for _, s := range sites {
		drain(s, len(s.inbox))
	}
	for _, s := range sites[1:] {
		if s.doc.Text() != sites[0].doc.Text() {
			t.Fatal("replicas diverged")
		}
	}
	if final := len(sites[0].doc.Text()); final < targetLen/2 || maxLen > 2*targetLen {
		t.Errorf("length not held near %d: final %d, max %d", targetLen, final, maxLen)
	}
}

func TestJudge(t *testing.T) {
	lower := MetricSpec{Name: "peer_apply_p50_ms", Better: "lower", Bound: 0.10}
	higher := MetricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.08}
	for _, c := range []struct {
		spec       MetricSpec
		base, cand Metric
		want       string
	}{
		{lower, Metric{Value: 1.0, Spread: 0.02}, Metric{Value: 1.05, Spread: 0.02}, Same},
		{lower, Metric{Value: 1.0, Spread: 0.02}, Metric{Value: 1.2, Spread: 0.02}, Worse},
		{lower, Metric{Value: 1.0, Spread: 0.02}, Metric{Value: 0.8, Spread: 0.02}, Better},
		{lower, Metric{Value: 1.0, Spread: 0.02}, Metric{Value: 1.2, Spread: 0.3}, Unresolved},
		{higher, Metric{Value: 1000}, Metric{Value: 900}, Worse},
		{higher, Metric{Value: 1000}, Metric{Value: 1100}, Better},
		{higher, Metric{Value: 1000}, Metric{Value: 950}, Same},
	} {
		if got := Judge(c.spec, c.base, c.cand); got != c.want {
			t.Errorf("Judge(%s, %v -> %v) = %s, want %s", c.spec.Name, c.base, c.cand, got, c.want)
		}
	}
}

func TestCompareStreamsSeesPerturbation(t *testing.T) {
	real := []session.Item{
		{Seq: 1, From: "p0", Kind: engine.ItemKind, Body: "!host|AAAA"},
		{Seq: 2, From: session.HostAuthor, Kind: engine.ItemKind, Body: "|BBBB"},
	}
	same := append([]session.Item(nil), real...)
	same[1].At = time.Second // the host's clock is not part of the contract
	if err := compareStreams(real, same); err != nil {
		t.Errorf("identical streams reported as different: %v", err)
	}
	for name, mutate := range map[string]func([]session.Item) []session.Item{
		"commit authored by the submitter": func(s []session.Item) []session.Item { s[1].From = "p0"; return s },
		"commit addressed":                 func(s []session.Item) []session.Item { s[1].Body = "p1|BBBB"; return s },
		"commit never posted":              func(s []session.Item) []session.Item { return s[:1] },
	} {
		if err := compareStreams(real, mutate(append([]session.Item(nil), real...))); err == nil {
			t.Errorf("%s: not detected", name)
		}
	}
}

// TestSpecMatchesHarness holds BENCHMARK.json to what the harness reports: the
// five workloads by name and reason, and every declared metric present in the mode that
// must print it.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := ReadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name+": "+w.Why)
	}
	for _, w := range Workloads {
		have = append(have, w.Name+": "+w.Why)
	}
	if !reflect.DeepEqual(declared, have) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", declared, have)
	}
	names := func(specs []MetricSpec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, s.Name+" "+s.Unit)
		}
		sort.Strings(out)
		return out
	}
	if got, want := names(spec.EndToEnd), metricList(EndToEndUnits); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json declares\n%v\nthe harness reports\n%v", got, want)
	}
	if got, want := names(spec.PerLayer), metricList(PerLayerUnits); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json declares\n%v\nthe harness reports\n%v", got, want)
	}
}

func metricList(units map[string]string) []string {
	var out []string
	for name, unit := range units {
		out = append(out, name+" "+unit)
	}
	sort.Strings(out)
	return out
}

// TestQuickSmoke drives the real sessiond (built into a temp dir) through a
// -quick closed-loop rep of every workload and a traced ot_1x4 rep: replicas
// converge, nothing fails, and the trace attributes what it should.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns cmd/sessiond")
	}
	bin, _, err := BuildSessiond(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 1, Seconds: 15, Quick: true, Sessiond: bin}
	for _, wl := range Workloads {
		res, err := opts.RunUntraced(wl)
		if err != nil {
			t.Fatal(err)
		}
		checkClean(t, res)
		if got, want := metricList(unitsOf(res)), metricList(EndToEndUnits); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: untraced run reported %v, want %v", wl.Name, got, want)
		}
		if wl.Name != "relay_1x4" {
			continue
		}
		if a := res.Metrics["allocs_per_op"].Value; a < 20 || a > 200 {
			t.Errorf("allocs_per_op = %v, expected about 60", a)
		}
		if b := res.Metrics["wire_bytes_per_op"].Value; b < 300 || b > 600 {
			t.Errorf("wire_bytes_per_op = %v, expected about 430 (1 post + 3 pushes)", b)
		}
	}

	ot, _ := WorkloadNamed("ot_1x4")
	tr := newTracer()
	traced, err := opts.runRep(ot, 300, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range traced.failures {
		t.Errorf("traced ot_1x4: %s", f)
	}
	if traced.failed != 0 {
		t.Errorf("traced ot_1x4: %d failed pairs", traced.failed)
	}
	if got := float64(traced.sut.pushes) / float64(traced.ops); got != 7 {
		t.Errorf("pushes per OT op = %v, want 7 (the submission to 3 peers, the commit to all 4)", got)
	}
	lt := analyze(tr.finish(), traced.hub, traced.ordered, traced.driveStart)
	if lt.all[spanIntegrate] <= 0 {
		t.Error("no host integrate time on an OT workload")
	}
	if lt.joinServeUs != 0 {
		t.Errorf("join serve time %v on a workload without roamers", lt.joinServeUs)
	}
	if lt.unexplained < -0.05 || lt.unexplained > 0.5 {
		t.Errorf("unexplained share %v: the blocking path does not reconcile", lt.unexplained)
	}
}

func unitsOf(res *Result) map[string]string {
	out := make(map[string]string)
	for name, m := range res.Metrics {
		out[name] = m.Unit
	}
	return out
}

// checkClean fails the test on anything but a late-running loadgen: the box
// running the tests may be busy, and lateness says nothing about the program.
func checkClean(t *testing.T, res *Result) {
	t.Helper()
	if res.Failed != 0 {
		t.Errorf("%s: failed_share %d/%d, want 0", res.Workload, res.Failed, res.Attempted)
	}
	for _, f := range res.Failures {
		if !strings.HasPrefix(f, "loadgen ran late") {
			t.Errorf("%s: %s", res.Workload, f)
		}
	}
}
