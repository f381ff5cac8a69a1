package session

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// Accessor and pointer-vs-value Receive paths not exercised by the main
// scenario tests.

func TestAccessors(t *testing.T) {
	r := newRig(t, 1, Asynchronous, netsim.LANLink)
	if r.doc() != nil {
		t.Error("a document is open before anyone joined it")
	}
	c := r.clients["u00"]
	if c.Mode() != Synchronous {
		t.Errorf("client default mode = %v", c.Mode())
	}
	r.joinAll(t)
	if r.doc().Mode() != Asynchronous {
		t.Errorf("document mode = %v", r.doc().Mode())
	}
	if c.Mode() != Asynchronous {
		t.Errorf("client mode after join = %v", c.Mode())
	}
	if c.LastSeq() != 0 {
		t.Errorf("LastSeq = %d", c.LastSeq())
	}
	c.Post("k", "b", 0)
	r.sim.Run()
	c.Poll(0)
	r.sim.Run()
	// Own items are filtered but acked server-side; LastSeq stays 0 until
	// someone else posts.
	if c.LastSeq() != 0 {
		t.Errorf("LastSeq after own post = %d", c.LastSeq())
	}
}

func TestJoinWithoutHost(t *testing.T) {
	hub := netsim.New(1, netsim.LANLink)
	node := hub.MustAddNode("x")
	c := NewClientForDoc(fabric.FromSim(node), "", "")
	if err := c.Join(0); !errors.Is(err, ErrNoHost) {
		t.Errorf("Join = %v", err)
	}
}

func TestReceiveHandFedMessages(t *testing.T) {
	// Host and Client process every message kind handed straight to
	// Receive. Payloads are pointers (the fabric.Endpoint contract); a
	// struct passed by value is foreign traffic and changes nothing.
	sim := netsim.New(1, netsim.LANLink)
	hostNode := sim.MustAddNode("host")
	host := NewHost(fabric.FromSim(hostNode), Synchronous, sim.Now)

	host.Receive("u0", MsgJoin{From: "u0", State: Active})
	if host.Host("") != nil {
		t.Fatal("a by-value MsgJoin opened a document")
	}
	host.Receive("u1", &MsgJoin{From: "u1", State: Active})
	sim.Run()
	d := host.Host("")
	if d.PresenceOf("u1") != Active {
		t.Fatalf("presence = %v", d.PresenceOf("u1"))
	}
	host.Receive("u1", &MsgPost{From: "u1", Kind: "k", Body: "v"})
	if d.LogLen() != 1 {
		t.Fatalf("log = %d", d.LogLen())
	}
	host.Receive("u1", &MsgPoll{From: "u1", Since: 0})
	host.Receive("u1", &MsgPresence{From: "u1", State: Away})
	if d.PresenceOf("u1") != Away {
		t.Errorf("presence = %v", d.PresenceOf("u1"))
	}
	host.Receive("u1", &MsgLeave{From: "u1"})
	if d.PresenceOf("u1") != Offline {
		t.Errorf("presence = %v", d.PresenceOf("u1"))
	}
	if d.PresenceOf("never-joined") != Offline {
		t.Errorf("unknown presence = %v", d.PresenceOf("never-joined"))
	}

	cNode := sim.MustAddNode("c")
	c := NewClientForDoc(fabric.FromSim(cNode), "host", "")
	var modes []Mode
	var presences []string
	c.OnMode = func(m Mode) { modes = append(modes, m) }
	c.OnPresence = func(u string, p Presence) { presences = append(presences, u) }
	c.Receive("host", &MsgJoinAck{Mode: Asynchronous})
	if !c.Joined() || c.Mode() != Asynchronous {
		t.Error("JoinAck not processed")
	}
	c.Receive("host", &MsgItems{Items: []Item{{Seq: 1, From: "x", Body: "b"}}})
	if c.LastSeq() != 1 {
		t.Errorf("LastSeq = %d", c.LastSeq())
	}
	c.Receive("host", &MsgMode{Mode: Synchronous})
	c.Receive("host", &MsgPresence{From: "x", State: Away})
	if len(modes) != 1 || modes[0] != Synchronous {
		t.Errorf("modes = %v", modes)
	}
	if len(presences) != 1 || presences[0] != "x" {
		t.Errorf("presences = %v", presences)
	}
}

func TestSetPresenceBeforeJoin(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	node := sim.MustAddNode("x")
	c := NewClientForDoc(fabric.FromSim(node), "host", "")
	if err := c.SetPresence(Away, 0); !errors.Is(err, ErrNotJoined) {
		t.Errorf("SetPresence = %v", err)
	}
}

func TestSetModeNoopAndSyncToAsync(t *testing.T) {
	r := newRig(t, 2, Synchronous, netsim.LANLink)
	r.joinAll(t)
	st := r.doc().Stats()
	r.doc().SetMode(Synchronous) // no-op
	if r.doc().Stats().ModeSwitches != st.ModeSwitches {
		t.Error("same-mode switch counted")
	}
	r.doc().SetMode(Asynchronous) // no flush on downgrade
	r.sim.Run()
	if r.doc().Stats().FlushServes != 0 {
		t.Error("sync->async should not flush")
	}
	if r.clients["u00"].Mode() != Asynchronous {
		t.Errorf("client mode = %v", r.clients["u00"].Mode())
	}
}

func TestModeSwitchFlushSkipsCaughtUp(t *testing.T) {
	r := newRig(t, 2, Asynchronous, netsim.LANLink)
	r.joinAll(t)
	r.clients["u00"].Post("k", "x", 0)
	r.sim.Run()
	// u01 polls so it is fully caught up before the switch.
	r.clients["u01"].Poll(time.Millisecond)
	r.sim.Run()
	n := len(r.items["u01"])
	r.doc().SetMode(Synchronous)
	r.sim.Run()
	if len(r.items["u01"]) != n {
		t.Error("caught-up participant received duplicate flush items")
	}
}
