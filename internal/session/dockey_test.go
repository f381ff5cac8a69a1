package session

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

type keyed struct{ doc string }

func (k keyed) DocKey() string { return k.doc }

func TestDocOfDocKeyedFallthrough(t *testing.T) {
	if got := DocOf(keyed{"d9"}); got != "d9" {
		t.Fatalf("DocKeyed payload demuxed to %q", got)
	}
	if got := DocOf(struct{}{}); got != "" {
		t.Fatalf("unkeyed payload demuxed to %q", got)
	}
	// Session's own types are DocKeyed too, as pointers and as values.
	if got := DocOf(&MsgPost{Doc: "p"}); got != "p" {
		t.Fatalf("session payload demuxed to %q", got)
	}
	if got := DocOf(MsgItems{Doc: "i"}); got != "i" {
		t.Fatalf("session value demuxed to %q", got)
	}
}

func TestHostIgnoresForeignKeyedTraffic(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	h := NewHost(fabric.FromSim(sim.MustAddNode("h")), Synchronous, sim.Now)
	h.Receive("x", keyed{"other"}) // no join: opens nothing
	if docs := h.Docs(); len(docs) != 0 {
		t.Fatalf("foreign traffic opened documents %v", docs)
	}
	h.Receive("x", &MsgJoin{Doc: "mine", From: "x"})
	h.Receive("x", keyed{"mine"}) // right document, foreign type: ignored
	if d := h.Host("mine"); d.LogLen() != 0 || len(d.Members()) != 1 {
		t.Fatalf("foreign traffic mutated host state: log %d members %v", d.LogLen(), d.Members())
	}
}

func TestPostLocalReachesEveryParticipant(t *testing.T) {
	sim := netsim.New(2, netsim.LocalLink)
	h := NewHost(fabric.FromSim(sim.MustAddNode("host")), Synchronous, sim.Now)
	got := map[string]int{}
	for _, id := range []string{"a", "b"} {
		id := id
		c := NewClientForDoc(fabric.FromSim(sim.MustAddNode(id)), "host", "")
		c.OnItem = func(it Item) {
			if it.From != HostAuthor || it.Kind != "eng/op" {
				t.Errorf("unexpected item %+v at %s", it, id)
			}
			got[id]++
		}
		if err := c.Join(0); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	h.Host("").PostLocal("eng/op", "payload")
	sim.Run()
	if got["a"] != 1 || got["b"] != 1 {
		t.Fatalf("host item fanout %v", got)
	}
	// A late joiner replays host items from the backlog.
	late := NewClientForDoc(fabric.FromSim(sim.MustAddNode("late")), "host", "")
	late.OnItem = func(it Item) { got["late"]++ }
	if err := late.Join(0); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got["late"] != 1 {
		t.Fatalf("late joiner saw %d host items", got["late"])
	}
}
