package session

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// rig wires a host and n clients over a simulated LAN.
type rig struct {
	sim     *netsim.Sim
	host    *Host
	clients map[string]*Client
	items   map[string][]Item
	ids     []string
}

func newRig(t testing.TB, n int, mode Mode, link netsim.Link) *rig {
	t.Helper()
	r := &rig{
		sim:     netsim.New(1, link),
		clients: make(map[string]*Client),
		items:   make(map[string][]Item),
	}
	hostNode := r.sim.MustAddNode("host")
	r.host = NewHost(fabric.FromSim(hostNode), mode, r.sim.Now)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("u%02d", i)
		r.ids = append(r.ids, id)
		node := r.sim.MustAddNode(id)
		c := NewClientForDoc(fabric.FromSim(node), "host", "")
		c.OnItem = func(it Item) { r.items[id] = append(r.items[id], it) }
		r.clients[id] = c
	}
	return r
}

// doc is the unnamed document's state, open once anyone has joined.
func (r *rig) doc() *docHost { return r.host.Host("") }

func (r *rig) joinAll(t testing.TB) {
	t.Helper()
	for _, id := range r.ids {
		if err := r.clients[id].Join(r.sim.Now()); err != nil {
			t.Fatal(err)
		}
	}
	r.sim.Run()
	for _, id := range r.ids {
		if !r.clients[id].Joined() {
			t.Fatalf("%s failed to join", id)
		}
	}
}

func TestSynchronousPush(t *testing.T) {
	r := newRig(t, 3, Synchronous, netsim.LANLink)
	r.joinAll(t)
	if err := r.clients["u00"].Post("chat", "hello", r.sim.Now()); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	for _, id := range []string{"u01", "u02"} {
		if len(r.items[id]) != 1 || r.items[id][0].Body != "hello" {
			t.Errorf("%s items = %+v", id, r.items[id])
		}
	}
	// The poster does not receive its own item back.
	if len(r.items["u00"]) != 0 {
		t.Errorf("poster got echo: %+v", r.items["u00"])
	}
	if r.doc().Stats().Pushes != 2 {
		t.Errorf("pushes = %d", r.doc().Stats().Pushes)
	}
}

func TestAsynchronousPoll(t *testing.T) {
	r := newRig(t, 2, Asynchronous, netsim.LANLink)
	r.joinAll(t)
	r.clients["u00"].Post("note", "draft-1", r.sim.Now())
	r.clients["u00"].Post("note", "draft-2", r.sim.Now())
	r.sim.Run()
	if len(r.items["u01"]) != 0 {
		t.Fatal("async mode must not push")
	}
	r.clients["u01"].Poll(r.sim.Now())
	r.sim.Run()
	if len(r.items["u01"]) != 2 {
		t.Fatalf("after poll items = %+v", r.items["u01"])
	}
	// A second poll returns nothing new.
	r.clients["u01"].Poll(r.sim.Now())
	r.sim.Run()
	if len(r.items["u01"]) != 2 {
		t.Fatal("duplicate delivery on re-poll")
	}
}

func TestPostBeforeJoin(t *testing.T) {
	r := newRig(t, 1, Synchronous, netsim.LANLink)
	if err := r.clients["u00"].Post("x", "y", 0); !errors.Is(err, ErrNotJoined) {
		t.Errorf("Post before join = %v", err)
	}
	if err := r.clients["u00"].Poll(0); !errors.Is(err, ErrNotJoined) {
		t.Errorf("Poll before join = %v", err)
	}
	if err := r.clients["u00"].Leave(0); !errors.Is(err, ErrNotJoined) {
		t.Errorf("Leave before join = %v", err)
	}
}

func TestLateJoinerBacklog(t *testing.T) {
	r := newRig(t, 3, Synchronous, netsim.LANLink)
	// Only u00 and u01 join at first.
	r.clients["u00"].Join(0)
	r.clients["u01"].Join(0)
	r.sim.Run()
	r.clients["u00"].Post("chat", "one", r.sim.Now())
	r.clients["u00"].Post("chat", "two", r.sim.Now())
	r.sim.Run()
	// u02 joins late and replays the backlog.
	r.clients["u02"].Join(r.sim.Now())
	r.sim.Run()
	if len(r.items["u02"]) != 2 || r.items["u02"][0].Body != "one" {
		t.Fatalf("late joiner backlog = %+v", r.items["u02"])
	}
}

func TestRejoinReplaysOnlyMissed(t *testing.T) {
	r := newRig(t, 2, Synchronous, netsim.LANLink)
	r.joinAll(t)
	r.clients["u00"].Post("c", "before", r.sim.Now())
	r.sim.Run()
	// u01 leaves; more items accumulate; rejoin replays only the gap.
	r.clients["u01"].Leave(r.sim.Now())
	r.sim.Run()
	r.clients["u00"].Post("c", "during-1", r.sim.Now())
	r.clients["u00"].Post("c", "during-2", r.sim.Now())
	r.sim.Run()
	r.clients["u01"].Join(r.sim.Now())
	r.sim.Run()
	got := r.items["u01"]
	if len(got) != 3 {
		t.Fatalf("items = %+v", got)
	}
	if got[1].Body != "during-1" || got[2].Body != "during-2" {
		t.Errorf("replayed = %+v", got)
	}
}

func TestAwayParticipantNotPushed(t *testing.T) {
	r := newRig(t, 2, Synchronous, netsim.LANLink)
	r.joinAll(t)
	r.clients["u01"].SetPresence(Away, r.sim.Now())
	r.sim.Run()
	if r.doc().PresenceOf("u01") != Away {
		t.Fatalf("presence = %v", r.doc().PresenceOf("u01"))
	}
	r.clients["u00"].Post("c", "while-away", r.sim.Now())
	r.sim.Run()
	if len(r.items["u01"]) != 0 {
		t.Fatal("away participant should not receive pushes")
	}
	// Coming back active + polling recovers the item.
	r.clients["u01"].SetPresence(Active, r.sim.Now())
	r.clients["u01"].Poll(r.sim.Now())
	r.sim.Run()
	if len(r.items["u01"]) != 1 {
		t.Fatalf("recovered items = %+v", r.items["u01"])
	}
}

func TestModeTransitionFlushes(t *testing.T) {
	r := newRig(t, 3, Asynchronous, netsim.LANLink)
	r.joinAll(t)
	r.clients["u00"].Post("c", "async-1", r.sim.Now())
	r.clients["u01"].Post("c", "async-2", r.sim.Now())
	r.sim.Run()
	if len(r.items["u02"]) != 0 {
		t.Fatal("nothing should be delivered in async mode")
	}
	// The meeting starts: switch to synchronous. Backlogs flush.
	r.doc().SetMode(Synchronous)
	r.sim.Run()
	if m := r.clients["u02"].Mode(); m != Synchronous {
		t.Errorf("client mode = %v", m)
	}
	if len(r.items["u02"]) != 2 {
		t.Fatalf("u02 flushed items = %+v", r.items["u02"])
	}
	// u00 missed u01's item and vice versa.
	if len(r.items["u00"]) != 1 || r.items["u00"][0].Body != "async-2" {
		t.Errorf("u00 flush = %+v", r.items["u00"])
	}
	if r.doc().Stats().ModeSwitches != 1 || r.doc().Stats().FlushServes != 4 {
		t.Errorf("stats = %+v", r.doc().Stats())
	}
	// Live now: a new post pushes immediately.
	r.clients["u00"].Post("c", "live", r.sim.Now())
	r.sim.Run()
	if len(r.items["u02"]) != 3 {
		t.Errorf("live push missing: %+v", r.items["u02"])
	}
}

func TestPresenceBroadcast(t *testing.T) {
	r := newRig(t, 2, Synchronous, netsim.LANLink)
	var seen []string
	r.clients["u00"].OnPresence = func(user string, p Presence) {
		seen = append(seen, fmt.Sprintf("%s:%s", user, p))
	}
	r.joinAll(t)
	r.clients["u01"].Leave(r.sim.Now())
	r.sim.Run()
	found := false
	for _, s := range seen {
		if s == "u01:offline" {
			found = true
		}
	}
	if !found {
		t.Errorf("presence events = %v", seen)
	}
}

func TestStrangersDropped(t *testing.T) {
	r := newRig(t, 1, Synchronous, netsim.LANLink)
	r.joinAll(t)
	// A raw post from an unjoined node is ignored.
	stranger := r.sim.MustAddNode("stranger")
	stranger.Send("host", &MsgPost{From: "stranger", Kind: "c", Body: "spam"}, 64)
	r.sim.Run()
	if r.doc().LogLen() != 0 {
		t.Error("stranger post accepted")
	}
}

// TestStrangerLeaveIsSilent: a leave from an id that never joined announces
// nothing — there is no departure for the members to hear about.
func TestStrangerLeaveIsSilent(t *testing.T) {
	r := newRig(t, 2, Synchronous, netsim.LANLink)
	var seen []string
	r.clients["u00"].OnPresence = func(user string, p Presence) { seen = append(seen, user+":"+p.String()) }
	r.joinAll(t)
	seen = nil
	r.sim.MustAddNode("stranger").Send("host", &MsgLeave{From: "stranger"}, 64)
	r.sim.Run()
	if len(seen) != 0 || len(r.doc().Members()) != 2 {
		t.Fatalf("stranger's leave reached members as %v; members %v", seen, r.doc().Members())
	}
}

// TestHostDropsForgedAuthor: the author of a message is its transport
// sender, so a joined peer cannot post, poll, change presence or leave in
// another member's name.
func TestHostDropsForgedAuthor(t *testing.T) {
	r := newRig(t, 3, Synchronous, netsim.LANLink)
	r.joinAll(t)
	for _, m := range []any{
		&MsgPost{From: "u00", Kind: "chat", Body: "forged"},
		&MsgPoll{From: "u00"},
		&MsgPresence{From: "u01", State: Away},
		&MsgLeave{From: "u01"},
		&MsgJoin{From: "u01", State: Away},
	} {
		r.host.Receive("u02", m) // sent by member u02
	}
	r.sim.Run()
	if n := r.doc().LogLen(); n != 0 {
		t.Errorf("forged post accepted: log holds %d items", n)
	}
	if p := r.doc().PresenceOf("u01"); p != Active {
		t.Errorf("forged presence or leave moved u01 to %v", p)
	}
	for _, id := range r.ids {
		if len(r.items[id]) != 0 {
			t.Errorf("%s received %+v", id, r.items[id])
		}
	}
}

// TestClientIgnoresNonHostFrames: a participant's listener accepts any
// local peer, so a client takes session frames only from its host.
func TestClientIgnoresNonHostFrames(t *testing.T) {
	r := newRig(t, 1, Synchronous, netsim.LANLink)
	c := r.clients["u00"]
	c.Receive("mallory", &MsgJoinAck{Mode: Asynchronous})
	if c.Joined() {
		t.Fatal("a join ack from a peer admitted the client")
	}
	r.joinAll(t)
	c.Receive("mallory", &MsgItems{Items: []Item{{Seq: 1, From: "u09", Body: "forged"}}})
	c.Receive("mallory", &MsgMode{Mode: Asynchronous})
	if len(r.items["u00"]) != 0 || c.LastSeq() != 0 || c.Mode() != Synchronous {
		t.Fatalf("peer frames reached the client: items %+v, lastSeq %d, mode %v", r.items["u00"], c.LastSeq(), c.Mode())
	}
}

// TestReservedIDCannotJoin: an id in HostAuthor's '!' namespace is never a
// member, so its posts are a stranger's and the host's own items still reach
// every real participant.
func TestReservedIDCannotJoin(t *testing.T) {
	r := newRig(t, 1, Synchronous, netsim.LANLink)
	r.joinAll(t)
	node := r.sim.MustAddNode(HostAuthor)
	impostor := NewClientForDoc(fabric.FromSim(node), "host", "")
	if err := impostor.Join(r.sim.Now()); err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	if impostor.Joined() || len(r.doc().Members()) != 1 {
		t.Fatalf("%s joined (acked %v), members %v", HostAuthor, impostor.Joined(), r.doc().Members())
	}
	node.Send("host", &MsgPost{From: HostAuthor, Kind: "chat", Body: "spoof"}, 64)
	r.sim.Run()
	r.doc().PostLocal("eng/op", "commit")
	r.sim.Run()
	if r.doc().LogLen() != 1 || len(r.items["u00"]) != 1 || r.items["u00"][0].Body != "commit" {
		t.Fatalf("log holds %d items, u00 got %+v; want only the host's commit", r.doc().LogLen(), r.items["u00"])
	}
}

func TestModeAndPresenceStrings(t *testing.T) {
	if Synchronous.String() != "synchronous" || Asynchronous.String() != "asynchronous" {
		t.Error("mode names")
	}
	if Active.String() != "active" || Away.String() != "away" || Offline.String() != "offline" {
		t.Error("presence names")
	}
}

func TestSpaceTimeQuadrantLatencies(t *testing.T) {
	// Miniature F1: the same interaction is slower remote than co-located,
	// and slower async (poll-bound) than sync.
	measure := func(mode Mode, link netsim.Link, pollGap time.Duration) time.Duration {
		r := newRig(t, 2, mode, link)
		r.joinAll(t)
		start := r.sim.Now()
		r.clients["u00"].Post("c", "x", start)
		if mode == Asynchronous {
			r.sim.At(pollGap, func() { r.clients["u01"].Poll(r.sim.Now()) })
		}
		r.sim.Run()
		if len(r.items["u01"]) != 1 {
			t.Fatalf("item not delivered (mode=%v)", mode)
		}
		return r.items["u01"][0].At - start + (r.sim.Now() - r.items["u01"][0].At)
	}
	syncLocal := measure(Synchronous, netsim.LocalLink, 0)
	syncRemote := measure(Synchronous, netsim.WANLink, 0)
	asyncRemote := measure(Asynchronous, netsim.WANLink, 5*time.Minute)
	if !(syncLocal < syncRemote && syncRemote < asyncRemote) {
		t.Errorf("quadrant ordering violated: local=%v remote=%v asyncRemote=%v",
			syncLocal, syncRemote, asyncRemote)
	}
}

func BenchmarkSynchronousPost4(b *testing.B) {
	r := newRig(b, 4, Synchronous, netsim.LANLink)
	r.joinAll(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.clients["u00"].Post("c", "payload", r.sim.Now())
		if i%256 == 0 {
			r.sim.Run()
		}
	}
	r.sim.Run()
}
