package simworld

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/session"
)

// tapped is a world whose wrap hook records, per node, every send (as
// "from>to") and every delivery (as "from>to") in the order they happen.
type tapped struct {
	*World
	wrapped   []string
	sends     []string
	delivered []string
}

func newTapped(seed int64) *tapped {
	t := &tapped{World: New(seed, netsim.LANLink)}
	t.Wrap = func(id string, base *fabric.SimEndpoint) fabric.Endpoint {
		t.wrapped = append(t.wrapped, id)
		return fabric.Wrap(base, fabric.Tap(
			func(to string, _ any, _ int) { t.sends = append(t.sends, id+">"+to) },
			func(from string, _ any, _ int) { t.delivered = append(t.delivered, from+">"+id) },
		))
	}
	return t
}

func TestEndpointsCreatedOnceInCallOrder(t *testing.T) {
	w := newTapped(1)
	w.Star("hub", netsim.LANLink, netsim.LANLink, "x", "y")
	w.FullMesh(netsim.LANLink, "y", "z", "x")
	w.Named("n0", "n1")
	if w.Endpoint("x") != w.Endpoint("x") {
		t.Error("Endpoint built a second endpoint for an existing node")
	}
	want := []string{"hub", "x", "y", "z", "n0", "n1"}
	if !reflect.DeepEqual(w.wrapped, want) {
		t.Errorf("wrap hook saw %v, want %v (once per node, in creation order)", w.wrapped, want)
	}
	if got := w.Sim.NodeCount(); got != len(want) {
		t.Errorf("simulator holds %d nodes, want %d", got, len(want))
	}
}

// The wrap hook is on the path of every send and every delivery of every
// node: what the taps count is what the simulator counts.
func TestWrapHookSeesAllTraffic(t *testing.T) {
	w := newTapped(3)
	ids := w.Named("g0", "g1", "g2")
	got := make(map[string]int)
	members, err := w.Members(ids, group.TotalSequencer, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(group.Delivery) { got[id]++ }
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if err := members[id].Multicast(i, 16); err != nil {
			t.Fatal(err)
		}
	}
	w.Sim.Run()
	for _, id := range ids {
		if got[id] != len(ids) {
			t.Errorf("%s delivered %d multicasts, want %d", id, got[id], len(ids))
		}
	}
	sent, dropped := w.Sim.Stats()
	if len(w.sends) != sent || sent == 0 {
		t.Errorf("taps saw %d sends, the simulator %d", len(w.sends), sent)
	}
	if len(w.delivered) != w.Sim.Delivered() || dropped != 0 {
		t.Errorf("taps saw %d deliveries, the simulator %d (dropped %d)", len(w.delivered), w.Sim.Delivered(), dropped)
	}
	for _, id := range ids {
		var out, in bool
		for _, s := range w.sends {
			out = out || strings.HasPrefix(s, id+">")
		}
		for _, d := range w.delivered {
			in = in || strings.HasSuffix(d, ">"+id)
		}
		if !out || !in {
			t.Errorf("%s: tap saw sends=%v deliveries=%v, want both", id, out, in)
		}
	}
}

func TestMembersReportsSetupFailure(t *testing.T) {
	w := New(1, netsim.LANLink)
	_, err := w.Members(w.Named("a"), group.FIFO, group.BatchConfig{}, func(string) func(group.Delivery) { return nil })
	if err == nil || !strings.Contains(err.Error(), "member a") {
		t.Fatalf("Members with a nil deliver callback = %v, want an error naming the member", err)
	}
}

func TestSessionRunsOverTheWorldsLinks(t *testing.T) {
	w := New(1, netsim.LANLink)
	h, cls := w.Session("host", session.Synchronous, "ann", "ben")
	var seen []string
	cls["ben"].OnItem = func(it session.Item) { seen = append(seen, it.Body) }
	for _, id := range []string{"ann", "ben"} {
		if err := cls[id].Join(0); err != nil {
			t.Fatal(err)
		}
	}
	w.Sim.Run()
	if err := cls["ann"].Post("chat", "hello", w.Sim.Now()); err != nil {
		t.Fatal(err)
	}
	w.Sim.Run()
	if !reflect.DeepEqual(seen, []string{"hello"}) || h.LogLen() != 1 {
		t.Errorf("ben saw %v, host log %d; want [hello] and 1", seen, h.LogLen())
	}
}

// An OT submission is addressed: it reaches the server and nobody else. The
// server's Apply returns the commit, which the pump must forward to every
// client — the submitter's acknowledgement included.
func TestReplicasRouteAddressedAndForwardApplied(t *testing.T) {
	w := newTapped(5)
	reps, err := w.Replicas(engine.OT, "srv", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	reps.Insert("a", 0, 'x')
	w.Sim.Run()
	if err := reps.Err(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a>srv", "srv>a", "srv>b"}; !reflect.DeepEqual(w.sends, want) {
		t.Errorf("sends %v, want %v", w.sends, want)
	}
	if len(w.delivered) != 3 {
		t.Errorf("deliveries %v, want the submit and two commits", w.delivered)
	}
	for _, id := range reps.IDs {
		if got := reps.Docs[id].Text(); got != "x" {
			t.Errorf("%s holds %q, want %q", id, got, "x")
		}
	}
	if !reps.Converged() {
		t.Error("replicas with identical text and nothing pending are not Converged")
	}
}

func TestReplicasBroadcastAndTick(t *testing.T) {
	w := newTapped(5)
	reps, err := w.Replicas(engine.CRDT, "r1", "r2", "r3")
	if err != nil {
		t.Fatal(err)
	}
	applied := make(map[string]int)
	reps.Applied = func(site string) { applied[site]++ }
	reps.Insert("r2", 0, 'q')
	if reps.Converged() {
		t.Error("Converged before the edit was delivered")
	}
	w.Sim.Run()
	if want := []string{"r2>r1", "r2>r3"}; !reflect.DeepEqual(w.sends, want) {
		t.Errorf("broadcast sends %v, want %v", w.sends, want)
	}
	if !reflect.DeepEqual(applied, map[string]int{"r1": 1, "r3": 1}) {
		t.Errorf("Applied ran %v, want once at r1 and r3", applied)
	}
	w.sends = nil
	reps.Tick()
	w.Sim.Run()
	if len(w.sends) != 6 {
		t.Errorf("a tick round sent %v, want every site's state to both others", w.sends)
	}
	if err := reps.Err(); err != nil || !reps.Converged() {
		t.Errorf("after the round: err %v, converged %v", err, reps.Converged())
	}
}

func TestReplicasReportFailures(t *testing.T) {
	cases := []struct {
		name    string
		payload any
		want    string
	}{
		{"undecodable frame", []byte{0xde, 0xad, 0xbe, 0xef}, "r1 decoding from stranger"},
		{"not a frame", "plain string", "want an encoded frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := New(1, netsim.LANLink)
			reps, err := w.Replicas(engine.CRDT, "r1", "r2")
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Endpoint("stranger").Send("r1", tc.payload, 4); err != nil {
				t.Fatal(err)
			}
			w.Sim.Run()
			if err := reps.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Err() = %v, want an error containing %q", err, tc.want)
			}
			// A failed pump moves nothing further.
			reps.Insert("r1", 0, 'x')
			w.Sim.Run()
			if got := reps.Docs["r2"].Text(); got != "" {
				t.Errorf("r2 holds %q after the pump failed, want nothing", got)
			}
		})
	}
	w := New(1, netsim.LANLink)
	reps, err := w.Replicas(engine.CRDT, "r1", "r2")
	if err != nil {
		t.Fatal(err)
	}
	reps.Delete("r1", 3)
	if err := reps.Err(); err == nil || !strings.Contains(err.Error(), "r1 delete at 3") {
		t.Errorf("Err() after an out-of-range delete = %v", err)
	}
	if _, err := w.Replicas("paxos", "p1", "p2"); err == nil {
		t.Error("unknown engine accepted")
	}
}

// The cross-region behaviour the chaos scale scenarios rely on: clusters
// talk freely inside, not at all across once isolated, except over the one
// bridged gateway pair; In joins the cluster's region.
func TestClusterIsolateBridge(t *testing.T) {
	w := New(9, netsim.LANLink)
	a := w.Cluster("lan-a", "a", 3, netsim.LANLink)
	b := w.Cluster("lan-b", "b", 3, netsim.LANLink)
	extra := w.In(a, "arbiter")
	if a.IDs[len(a.IDs)-1] != extra || w.Sim.Node(extra).Region() != a.Region {
		t.Fatalf("In did not place %s in %s's region", extra, a.Name)
	}
	w.Isolate(a, b)
	gwA, gwB := w.Bridge(a, b, netsim.WANLink)
	if gwA != "a0" || gwB != "b0" {
		t.Fatalf("gateways %s, %s; want the clusters' first members", gwA, gwB)
	}
	got := make(map[string][]string)
	for _, id := range append(append([]string(nil), a.IDs...), b.IDs...) {
		id := id
		w.Endpoint(id).SetHandler(func(from string, _ any, _ int) { got[id] = append(got[id], from) })
	}
	for _, hop := range []struct {
		from, to string
		ok       bool
	}{
		{"a1", "a2", true},
		{"arbiter", "a1", true},
		{"a1", "b1", false},
		{"b2", "a0", false},
		{"arbiter", "b0", false},
		{gwA, gwB, true},
		{gwB, gwA, true},
	} {
		err := w.Endpoint(hop.from).Send(hop.to, fmt.Sprintf("%s>%s", hop.from, hop.to), 8)
		if hop.ok && err != nil {
			t.Errorf("%s -> %s refused: %v", hop.from, hop.to, err)
		}
		if !hop.ok && !errors.Is(err, netsim.ErrNoRoute) {
			t.Errorf("%s -> %s = %v, want ErrNoRoute across isolated regions", hop.from, hop.to, err)
		}
	}
	w.Sim.Run()
	want := map[string][]string{"a2": {"a1"}, "a1": {"arbiter"}, "b0": {"a0"}, "a0": {"b0"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries %v, want %v", got, want)
	}
	// The bridge is an ordinary pair override: a partition cuts it and a heal
	// restores it, as federation-crdt-wan does mid-run.
	w.Sim.Partition(a.IDs, b.IDs)
	if err := w.Endpoint(gwA).Send(gwB, "cut", 8); !errors.Is(err, netsim.ErrNoRoute) {
		t.Errorf("bridge during the partition = %v, want ErrNoRoute", err)
	}
	w.Sim.Heal(a.IDs, b.IDs)
	if err := w.Endpoint(gwA).Send(gwB, "healed", 8); err != nil {
		t.Errorf("bridge after the heal: %v", err)
	}
	if err := w.Endpoint("a1").Send("b1", "still isolated", 8); !errors.Is(err, netsim.ErrNoRoute) {
		t.Errorf("non-gateway pair after the heal = %v, want ErrNoRoute", err)
	}
}
