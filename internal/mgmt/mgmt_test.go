package mgmt

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
)

// topo builds three sites: two London nodes close together, one Sydney node
// far away, all meshed.
func topo() *netsim.Sim {
	sim := netsim.New(1, netsim.LANLink)
	for _, n := range []string{"lon1", "lon2", "syd"} {
		sim.MustAddNode(n)
	}
	sim.SetBiLink("lon1", "lon2", netsim.Link{Latency: 1 * time.Millisecond})
	sim.SetBiLink("lon1", "syd", netsim.Link{Latency: 150 * time.Millisecond})
	sim.SetBiLink("lon2", "syd", netsim.Link{Latency: 150 * time.Millisecond})
	return sim
}

func mgr(t *testing.T, sim *netsim.Sim, p Policy) *Manager {
	t.Helper()
	m := NewManager(sim, p, 42)
	for _, n := range []string{"lon1", "lon2", "syd"} {
		if err := m.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestPlaceValidation(t *testing.T) {
	sim := topo()
	m := NewManager(sim, FirstFit, 1)
	if _, err := m.Place("c", nil); !errors.Is(err, ErrNoNodes) {
		t.Errorf("Place with no nodes = %v", err)
	}
	if err := m.AddNode("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("AddNode ghost = %v", err)
	}
	if _, err := m.NodeOf("nope"); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("NodeOf = %v", err)
	}
	if err := m.RecordAccess("nope", "lon1", 1); !errors.Is(err, ErrUnknownCluster) {
		t.Errorf("RecordAccess = %v", err)
	}
}

func TestFirstFitIgnoresGroup(t *testing.T) {
	sim := topo()
	m := mgr(t, sim, FirstFit)
	// A group entirely in Sydney still lands on the first node (lon1).
	node, err := m.Place("doc", map[string]int{"syd": 100})
	if err != nil {
		t.Fatal(err)
	}
	if node != "lon1" {
		t.Errorf("first-fit placed on %s", node)
	}
}

func TestGroupAwarePlacement(t *testing.T) {
	sim := topo()
	m := mgr(t, sim, GroupAware)
	// Mostly-Sydney group: Sydney hosting gives worst RTT 300ms for London
	// members; London hosting gives 300ms for Sydney. Equal worst — but a
	// pure Sydney group must land in Sydney.
	node, err := m.Place("doc", map[string]int{"syd": 100})
	if err != nil {
		t.Fatal(err)
	}
	if node != "syd" {
		t.Errorf("group-aware placed pure-Sydney group on %s", node)
	}
	// A pure London group lands in London.
	node, _ = m.Place("doc2", map[string]int{"lon1": 10, "lon2": 10})
	if node != "lon1" && node != "lon2" {
		t.Errorf("group-aware placed London group on %s", node)
	}
}

func TestGroupCost(t *testing.T) {
	sim := topo()
	m := mgr(t, sim, GroupAware)
	group := map[string]int{"lon1": 3, "syd": 1}
	worst, mean := m.GroupCost(group, "lon2")
	// lon1<->lon2 RTT 2ms, syd<->lon2 RTT 300ms.
	if worst != 300*time.Millisecond {
		t.Errorf("worst = %v", worst)
	}
	want := (3*2*time.Millisecond + 300*time.Millisecond) / 4
	if mean != want {
		t.Errorf("mean = %v, want %v", mean, want)
	}
	// Hosting at the accessing site itself costs that member nothing.
	worst, _ = m.GroupCost(map[string]int{"syd": 1}, "syd")
	if worst != 0 {
		t.Errorf("self-hosting worst = %v", worst)
	}
}

func TestUsageShiftTriggersMigration(t *testing.T) {
	sim := topo()
	m := mgr(t, sim, GroupAware)
	var migs []Migration
	m.OnMigrate = func(mg Migration) { migs = append(migs, mg) }
	node, _ := m.Place("doc", map[string]int{"lon1": 10, "lon2": 10})
	if node == "syd" {
		t.Fatalf("initial placement = %s", node)
	}
	// The London team hands the document over to the Sydney office.
	m.ResetUsage("doc")
	m.RecordAccess("doc", "syd", 500)
	out := m.Rebalance(10 * time.Millisecond)
	if len(out) != 1 || len(migs) != 1 {
		t.Fatalf("migrations = %+v", out)
	}
	if out[0].To != "syd" || out[0].Gain <= 0 {
		t.Errorf("migration = %+v", out[0])
	}
	if now, _ := m.NodeOf("doc"); now != "syd" {
		t.Errorf("cluster now on %s", now)
	}
}

func TestRebalanceRespectsMinGain(t *testing.T) {
	sim := topo()
	m := mgr(t, sim, GroupAware)
	m.Place("doc", map[string]int{"lon1": 10})
	// Shift to lon2: gain is only 2ms RTT; a 50ms threshold suppresses it.
	m.ResetUsage("doc")
	m.RecordAccess("doc", "lon2", 100)
	if out := m.Rebalance(50 * time.Millisecond); len(out) != 0 {
		t.Errorf("migrated for trivial gain: %+v", out)
	}
}

func TestNaivePoliciesNeverMigrate(t *testing.T) {
	sim := topo()
	m := mgr(t, sim, FirstFit)
	m.Place("doc", nil)
	m.RecordAccess("doc", "syd", 1000)
	if out := m.Rebalance(0); out != nil {
		t.Errorf("first-fit migrated: %+v", out)
	}
}

func TestRandomPlacementIsSeeded(t *testing.T) {
	sim := topo()
	m1 := mgr(t, sim, Random)
	m2 := mgr(t, sim, Random)
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		n1, _ := m1.Place(id, nil)
		n2, _ := m2.Place(id, nil)
		if n1 != n2 {
			t.Fatal("same seed should give same random placements")
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if FirstFit.String() != "first-fit" || Random.String() != "random" || GroupAware.String() != "group-aware" {
		t.Error("policy names")
	}
}

func BenchmarkGroupAwarePlace(b *testing.B) {
	sim := topo()
	m := NewManager(sim, GroupAware, 1)
	for _, n := range []string{"lon1", "lon2", "syd"} {
		m.AddNode(n)
	}
	group := map[string]int{"lon1": 5, "lon2": 3, "syd": 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Place(string(rune(i)), group)
	}
}
