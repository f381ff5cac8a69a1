package session

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// TestClientReceivePushAllocs pins the push hot path: once the callback
// queue's backing array has been recycled, handing a client a one-item
// push allocates nothing — the item is queued inline, not in a closure.
func TestClientReceivePushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	sim := netsim.New(1, netsim.LANLink)
	c := NewClientForDoc(fabric.FromSim(sim.MustAddNode("u0")), "host", "doc")
	var got int
	c.OnItem = func(Item) { got++ }
	push := &MsgItems{Doc: "doc", Items: []Item{{From: "u1", Kind: "eng/op", Body: "|AQID"}}}
	receive := func() {
		push.Items[0].Seq++
		c.Receive("host", push)
	}
	receive() // warm the queue
	if n := testing.AllocsPerRun(100, receive); n != 0 {
		t.Errorf("Client.Receive of a one-item push allocates %v objects, want 0", n)
	}
	if got != 102 { // the warm-up, AllocsPerRun's own warm-up, then 100 runs
		t.Errorf("OnItem ran %d times, want 102", got)
	}
}
