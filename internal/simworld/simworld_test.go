package simworld

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/ot"
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

func newTapped(seed int64, link netsim.Link) *tapped {
	t := &tapped{World: New(seed, link)}
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
	w := newTapped(1, netsim.LANLink)
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
	for _, id := range want {
		if w.Sim.Node(id) == nil {
			t.Errorf("simulator has no node %s", id)
		}
	}
}

// The wrap hook is on the path of every send and every delivery of every
// node: what the taps count is what the simulator counts.
func TestWrapHookSeesAllTraffic(t *testing.T) {
	w := newTapped(3, netsim.LANLink)
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
	if !reflect.DeepEqual(seen, []string{"hello"}) || h.Host("").LogLen() != 1 {
		t.Errorf("ben saw %v, host log %d; want [hello] and 1", seen, h.Host("").LogLen())
	}
}

func daemonConfig(kind string) daemon.Config {
	return daemon.Config{Mode: "sync", Shards: 1, Engine: kind, Doc: "doc"}
}

func insert(pos int, ch rune) func(engine.Doc) ([]engine.Msg, error) {
	return func(d engine.Doc) ([]engine.Msg, error) { return d.Insert(pos, ch) }
}

// TestHostCoreOnSimulator runs NewHost, the daemon minus its TCP edge, in
// virtual time with Attach'ed participants: same host, same integration
// site, another substrate.
func TestHostCoreOnSimulator(t *testing.T) {
	w := New(1, netsim.Link{Latency: time.Millisecond})
	d, err := w.Daemon(daemonConfig(engine.OT), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	for i, user := range []string{"a", "b", "a"} {
		d.Edit(user, insert(0, rune('x'+i)))
	}
	w.Sim.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	at, ap := d.Parts["a"].Text()
	bt, bp := d.Parts["b"].Text()
	if len(at) != 3 || at != bt || ap != 0 || bp != 0 || !d.Converged() {
		t.Errorf("a has %q (%d pending), b has %q (%d pending)", at, ap, bt, bp)
	}
	if got := d.Host.Host("doc").LogLen(); got != 6 {
		t.Errorf("log holds %d items, want 3 submissions and 3 commits", got)
	}
}

// An OT submission is addressed to the daemon: the host relays it to every
// other member, whose pump skips it, and posts the commit, which every
// participant applies — the submitter's acknowledgement included.
func TestDaemonRoutesAddressedItems(t *testing.T) {
	w := newTapped(5, netsim.LANLink)
	d, err := w.Daemon(daemonConfig(engine.OT), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	applied := make(map[string][]string)
	d.Applied = func(user string, it session.Item) { applied[user] = append(applied[user], it.From) }
	w.sends = nil
	d.Edit("a", insert(0, 'x'))
	w.Sim.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	// b is owed the submission and the commit, a only the commit.
	if want := []string{"a>host", "host>b", "host>a"}; !reflect.DeepEqual(w.sends, want) {
		t.Errorf("sends %v, want %v", w.sends, want)
	}
	want := map[string][]string{"a": {session.HostAuthor}, "b": {session.HostAuthor}}
	if !reflect.DeepEqual(applied, want) {
		t.Errorf("Applied ran for %v, want each participant's commit from the host only", applied)
	}
	for _, user := range d.Users {
		if got, _ := d.Parts[user].Text(); got != "x" {
			t.Errorf("%s holds %q, want %q", user, got, "x")
		}
	}
	if !d.Converged() {
		t.Error("participants with identical text and nothing pending are not Converged")
	}
}

// A CRDT op is broadcast: the host relays it and every other participant
// applies it. A Tick round is every participant's state, relayed to the
// others. The link is FIFO, as TCP is: LANLink's jitter lets a push overtake
// the one before it, and the client then drops the earlier one as already
// seen (ROADMAP item 21), which would leave a count here short by one.
func TestDaemonBroadcastAndTick(t *testing.T) {
	w := newTapped(5, netsim.Link{Latency: time.Millisecond})
	d, err := w.Daemon(daemonConfig(engine.CRDT), "r1", "r2", "r3")
	if err != nil {
		t.Fatal(err)
	}
	applied := make(map[string]int)
	d.Applied = func(user string, _ session.Item) { applied[user]++ }
	d.Edit("r2", insert(0, 'q'))
	if d.Converged() {
		t.Error("Converged before the edit was delivered")
	}
	w.sends = nil
	w.Sim.Run()
	if want := []string{"host>r1", "host>r3"}; !reflect.DeepEqual(w.sends, want) {
		t.Errorf("relayed pushes %v, want %v", w.sends, want)
	}
	if !reflect.DeepEqual(applied, map[string]int{"r1": 1, "r3": 1}) {
		t.Errorf("Applied ran %v, want once at r1 and r3", applied)
	}
	clear(applied)
	d.Tick()
	w.Sim.Run()
	if !reflect.DeepEqual(applied, map[string]int{"r1": 2, "r2": 2, "r3": 2}) {
		t.Errorf("a tick round applied %v, want the two other states at each participant", applied)
	}
	if err := d.Err(); err != nil || !d.Converged() {
		t.Errorf("after the round: err %v, converged %v", err, d.Converged())
	}
}

// Each participant's replica keeps the first failure, which stops the pumps:
// an item it cannot decode, or an edit its engine refuses. A post the network
// refuses is not a failure but loss.
func TestReplicasReportFailures(t *testing.T) {
	t.Run("refused post", func(t *testing.T) {
		w := New(1, netsim.LANLink)
		d, err := w.Daemon(daemonConfig(engine.CRDT), "r1", "r2")
		if err != nil {
			t.Fatal(err)
		}
		w.Sim.SetLink("r1", daemon.HostID, netsim.Link{Down: true})
		d.Edit("r1", insert(0, 'l'))
		w.Sim.Run()
		if err := d.Err(); err != nil {
			t.Fatalf("a refused post failed the pump: %v", err)
		}
	})
	t.Run("undecodable frame", func(t *testing.T) {
		w := New(1, netsim.LANLink)
		d, err := w.Daemon(daemonConfig(engine.CRDT), "r1", "r2")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Parts["r1"].Client.Post(engine.ItemKind, "|\xde\xad", 0); err != nil {
			t.Fatal(err)
		}
		w.Sim.Run()
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), "r2: bad eng/op from r1") {
			t.Fatalf("Err() = %v, want r2's decode failure", err)
		}
		// A failed pump moves nothing further.
		d.Edit("r1", insert(0, 'x'))
		w.Sim.Run()
		if got, _ := d.Parts["r2"].Text(); got != "" {
			t.Errorf("r2 holds %q after the pump failed, want nothing", got)
		}
	})
	t.Run("out-of-range delete", func(t *testing.T) {
		w := New(1, netsim.LANLink)
		d, err := w.Daemon(daemonConfig(engine.CRDT), "r1", "r2")
		if err != nil {
			t.Fatal(err)
		}
		d.Edit("r1", func(doc engine.Doc) ([]engine.Msg, error) { return doc.Delete(3) })
		if err := d.Err(); err == nil || !strings.HasPrefix(err.Error(), "r1: ") {
			t.Errorf("Err() after an out-of-range delete = %v", err)
		}
	})
}

// Only the daemon commits: p1, an OT participant, posts a broadcast commit
// of its own making. p0 must drop it, for the daemon never saw that op and
// would refuse every submission based on it, and so p0 still converges.
func TestOTCommitOnlyFromServer(t *testing.T) {
	w := New(1, netsim.LANLink)
	d, err := w.Daemon(daemonConfig(engine.OT), "p0", "p1")
	if err != nil {
		t.Fatal(err)
	}
	forged, err := engine.EncodeItemBody(engine.NewWireCodec(), engine.Msg{Body: &engine.MsgCommit{
		C: ot.Committed{Op: ot.Op{Kind: ot.Insert, Ch: 'z', Site: "p1"}, Rev: 1, Site: "p1", Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Parts["p1"].Client.Post(engine.ItemKind, forged, 0); err != nil {
		t.Fatal(err)
	}
	w.Sim.Run()
	d.Edit("p0", insert(0, 'a'))
	w.Sim.Run()
	d.Tick()
	w.Sim.Run()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for _, user := range d.Users {
		if text, pending := d.Parts[user].Text(); text != "a" || pending != 0 {
			t.Errorf("%s holds %q (%d pending), want %q and nothing pending", user, text, pending, "a")
		}
	}
}

// A deployment the daemon or a participant refuses is a setup error: an
// unknown engine, a reserved user name.
func TestDaemonRefusesBadConfig(t *testing.T) {
	for _, c := range []struct {
		kind, user, want string
	}{
		{"paxos", "p1", `unknown engine "paxos"`},
		{engine.CRDT, "!p1", `participant !p1: user "!p1" is reserved`},
	} {
		if _, err := New(1, netsim.LANLink).Daemon(daemonConfig(c.kind), c.user); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Daemon(%s, %s) = %v, want an error containing %q", c.kind, c.user, err, c.want)
		}
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
	if a.IDs[len(a.IDs)-1] != extra {
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
