package session

import (
	"strings"
	"testing"
	"time"

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

// nullEndpoint swallows sends: what is left is the session layer's own work.
type nullEndpoint struct{}

func (nullEndpoint) ID() string                  { return "host" }
func (nullEndpoint) Send(string, any, int) error { return nil }
func (nullEndpoint) SetHandler(fabric.Handler)   {}
func (nullEndpoint) Close() error                { return nil }

// TestHostReceivePostAllocs pins Host.Receive of a post with four members
// joined (three pushes) over an endpoint that does nothing: the in-module
// twin of cscwload's session.post_allocs. Each push is a MsgItems, its item
// slice and its queued send (9); the sorted member list and the callback
// queue's growth make up the rest.
func TestHostReceivePostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := NewHost(nullEndpoint{}, Synchronous, func() time.Duration { return 0 })
	for _, name := range []string{"p0", "p1", "p2", "p3"} {
		h.Receive(name, &MsgJoin{From: name, State: Active})
	}
	post := &MsgPost{From: "p0", Kind: "eng/op", Body: "|" + strings.Repeat("QUJD", 20)}
	if n := testing.AllocsPerRun(200, func() { h.Receive("p0", post) }); n != 13 {
		t.Errorf("Host.Receive of a four-member post allocates %v objects, want 13", n)
	}
	if got := h.Host("").LogLen(); got != 201 { // AllocsPerRun's warm-up, then 200 runs
		t.Errorf("log holds %d items, want 201", got)
	}
}
