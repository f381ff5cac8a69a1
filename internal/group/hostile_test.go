package group

// A member's listener is reachable by any local process, so a packet the
// wire codec accepts may still be hostile. None may panic a member or hold
// its lock unboundedly.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// within runs fn on its own goroutine and fails the test if fn panics or
// has not returned after d (a hang leaves that goroutine behind).
func within(t testing.TB, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	select {
	case p := <-done:
		if p != nil {
			t.Fatalf("%s panicked: %v", what, p)
		}
	case <-time.After(d):
		t.Fatalf("%s still running after %v", what, d)
	}
}

// TestReceiveViewPacketWithoutView: kind 3 announced a view change, and a
// packet can no longer carry the view; one from a member of the view is
// dropped, and ordering goes on under the installed view.
func TestReceiveViewPacketWithoutView(t *testing.T) {
	r := newRig(t, 3, TotalSequencer, netsim.LANLink)
	m := r.members["m00"]
	before := m.view
	within(t, 5*time.Second, "Receive of a view packet without a view", func() {
		m.Receive("m01", &packet{Kind: 3, From: "m01", ViewID: 2})
	})
	if got := m.view; got.ID != before.ID || len(got.Members) != len(before.Members) {
		t.Fatalf("view changed to %+v, want %+v", got, before)
	}
	m.Multicast("still ordering", 8)
	r.sim.Run()
	for _, id := range r.ids {
		if got := r.bodies(id); len(got) != 1 || got[0] != "still ordering" {
			t.Errorf("%s delivered %v after the dropped view packet", id, got)
		}
	}
}

// TestForgedAuthorDropped: a member speaks only for itself. Before m00
// multicasts, m02 hands m01 a message at m00's first sequence number in
// m00's name: as the packet's From, as its MsgID's origin, or in a batch.
// Taken, it is delivered as m00's and m00's real message is dropped as a
// replay; dropped, every member delivers m00's real message and nothing
// else in m00's name.
func TestForgedAuthorDropped(t *testing.T) {
	forged := func(seq uint64) *packet {
		return &packet{Kind: kData, From: "m00", ViewID: 1, Body: "forged", Size: 8, SenderSeq: seq}
	}
	for _, c := range []struct {
		name string
		p    *packet
	}{
		{"From", forged(1)},
		{"MsgID origin", &packet{Kind: kData, From: "m02", ViewID: 1, Body: "forged", Size: 8, SenderSeq: 1, MsgID: msgID{Origin: "m00", N: 1}}},
		{"batch", &packet{Kind: kBatch, From: "m02", ViewID: 1, Size: 16, Msgs: []*packet{forged(1), forged(2)}}},
	} {
		r := newRig(t, 3, FIFO, netsim.LANLink)
		r.members["m01"].Receive("m02", c.p)
		r.members["m00"].Multicast("real", 8)
		r.sim.Run()
		for _, id := range r.ids {
			var as00 []string
			for _, d := range r.deliv[id] {
				if d.From == "m00" {
					as00 = append(as00, fmt.Sprint(d.Body))
				}
			}
			if !slices.Equal(as00, []string{"real"}) {
				t.Errorf("forged in m00's %s: %s delivered %v as m00's", c.name, id, as00)
			}
		}
	}
}

// TestOutsideSenderDropped: an endpoint outside the view reaches every
// member on the simulator and sends each a packet in its own name or in
// m00's: data, a repair request for m00's message and an RPC request. No
// member delivers, repairs, answers or runs a handler for any of them.
func TestOutsideSenderDropped(t *testing.T) {
	r := newRig(t, 3, FIFO, netsim.LANLink)
	handled := 0
	for _, id := range r.ids {
		r.members[id].Handle("echo", func(string, any) (any, error) { handled++; return "ok", nil })
	}
	r.members["m00"].Multicast("real", 8)
	r.sim.Run()
	x9 := fabric.FromSim(r.sim.MustAddNode("x9"))
	heard := 0
	x9.SetHandler(func(string, any, int) { heard++ })
	for _, to := range r.ids {
		for _, p := range []*packet{
			{Kind: kData, From: "x9", ViewID: 1, Body: "outsider", Size: 8, SenderSeq: 1},
			{Kind: kData, From: "m00", ViewID: 1, Body: "forged", Size: 8, SenderSeq: 2},
			{Kind: kNack, From: "x9", ViewID: 1, NackFrom: 1, NackTo: 1},
			{Kind: kRPCReq, From: "x9", ViewID: 1, CallID: 1, Op: "echo"},
		} {
			if err := x9.Send(to, p, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.sim.Run()
	for _, id := range r.ids {
		if got := r.bodies(id); !slices.Equal(got, []string{"real"}) {
			t.Errorf("%s delivered %v", id, got)
		}
	}
	if heard != 0 || handled != 0 {
		t.Errorf("the outsider was sent %d packets, and %d handlers ran for it", heard, handled)
	}
}

// TestNackRangeClampedToRetention: a NACK naming sequences far past what
// the member has sent walks only the retention window, and repairs exactly
// the packets it holds.
func TestNackRangeClampedToRetention(t *testing.T) {
	r := newRig(t, 3, FIFO, netsim.LANLink)
	m := r.members["m00"]
	const sent = retainWindow + 3 // the first three have aged out
	for i := range sent {
		m.Multicast(fmt.Sprint(i), 8)
	}
	r.sim.Run()
	before := m.RetransmissionCount() // repairs the simulated links' losses asked for
	within(t, 5*time.Second, "Receive of a NACK for 1..1<<40", func() {
		m.Receive("m01", &packet{Kind: kNack, From: "m01", NackFrom: 1, NackTo: 1 << 40})
	})
	if got := m.RetransmissionCount() - before; got != retainWindow {
		t.Fatalf("NACK for 1..1<<40 served %d repairs, want the %d retained", got, retainWindow)
	}
	r.sim.Run()
	if got := r.bodies("m01"); len(got) != sent {
		t.Fatalf("m01 delivered %d messages, want %d (repairs are duplicates)", len(got), sent)
	}
}

// TestForgedOrderDropped: an order announcement is the sequencer's alone.
// m02 and then m01 multicast in a three-member view whose sequencer is
// m00, and before the network runs m01 is handed two order announcements
// that do not come from m00, for the two messages in one order or the
// other; whichever order m00 picks, one of them contradicts it. Taken,
// they make m01 deliver in another order than m00 and m02; dropped, every
// member delivers both messages in the sequencer's order.
func TestForgedOrderDropped(t *testing.T) {
	x, y := msgID{Origin: "m01", N: 1}, msgID{Origin: "m02", N: 1}
	for _, forger := range []struct{ from, claims string }{
		{"m02", "m02"}, // a member announcing in its own name
		{"m02", "m00"}, // a member announcing in the sequencer's name
	} {
		for _, forged := range [][]msgID{{x, y}, {y, x}} {
			r := newRig(t, 3, TotalSequencer, netsim.LANLink)
			r.members["m02"].Multicast("y", 8)
			r.members["m01"].Multicast("x", 8)
			for i, id := range forged {
				r.members["m01"].Receive(forger.from, &packet{Kind: kOrder, From: forger.claims, ViewID: 1, GlobalSeq: uint64(i + 1), MsgID: id})
			}
			r.sim.Run()
			want := r.bodies("m00")
			if len(want) != 2 {
				t.Fatalf("%v forged by %s as %s: the sequencer delivered %v, want both messages", forged, forger.from, forger.claims, want)
			}
			for _, id := range r.ids[1:] {
				if got := r.bodies(id); !slices.Equal(got, want) {
					t.Errorf("%v forged by %s as %s: %s delivered %v, the sequencer %v", forged, forger.from, forger.claims, id, got, want)
				}
			}
		}
	}
}

// TestForgedForwardedOrderDropped: an order that carries a message is the
// sequencer's alone too. Before the network runs, m01 of a three-member
// view whose sequencer is m00 is handed a body-carrying order for position
// 1 from a sender other than the sequencer, or claiming another sender, or
// both; then m02 multicasts. Taken, the forged message would be m01's
// first delivery; dropped, every member delivers m02's message alone at
// position 1.
func TestForgedForwardedOrderDropped(t *testing.T) {
	for _, forger := range []struct{ from, claims string }{
		{"m02", "m02"}, // a member announcing in its own name
		{"m02", "m00"}, // a member announcing in the sequencer's name
		{"m00", "m02"}, // the sequencer's link, another member's name
	} {
		r := newRig(t, 3, TotalSequencer, netsim.LANLink)
		forged := &packet{Kind: kOrder, From: forger.claims, ViewID: 1, Body: "forged", Size: 8, MsgID: msgID{Origin: "m02", N: 1}, GlobalSeq: 1}
		r.members["m01"].Receive(forger.from, forged)
		if n := r.members["m01"].retained(); n != 0 {
			t.Errorf("forged by %s as %s: m01 filed %d messages", forger.from, forger.claims, n)
		}
		r.members["m02"].Multicast("real", 8)
		r.sim.Run()
		for _, id := range r.ids {
			if got := r.bodies(id); !slices.Equal(got, []string{"real"}) || r.deliv[id][0].Seq != 1 {
				t.Errorf("forged by %s as %s: %s delivered %v", forger.from, forger.claims, id, got)
			}
		}
	}
}

// TestDataToNonSequencerDropped: under the sequencer protocol data goes to
// the sequencer alone, so a data packet or a batch that reaches another
// member is off-protocol: it is delivered nowhere, that member files
// nothing for it, and ordering goes on.
func TestDataToNonSequencerDropped(t *testing.T) {
	stray := &packet{Kind: kData, From: "m02", ViewID: 1, Body: "stray", Size: 8, MsgID: msgID{Origin: "m02", N: 1}}
	for _, p := range []*packet{stray, {Kind: kBatch, From: "m02", ViewID: 1, Size: 16, Msgs: []*packet{stray, stray}}} {
		r := newRig(t, 3, TotalSequencer, netsim.LANLink)
		r.members["m01"].Receive("m02", p)
		r.sim.Run()
		if n := r.members["m01"].retained(); n != 0 || len(r.deliv["m01"]) != 0 {
			t.Fatalf("kind %d: m01 filed %d messages and delivered %v", p.Kind, n, r.bodies("m01"))
		}
		r.members["m02"].Multicast("real", 8)
		r.sim.Run()
		for _, id := range r.ids {
			if got := r.bodies(id); !slices.Equal(got, []string{"real"}) {
				t.Errorf("kind %d: %s delivered %v", p.Kind, id, got)
			}
		}
	}
}

// TestTokenIgnoredBySequencer: a token packet handed to the sequencer of
// a sequencer-protocol view does not move its next position, so the
// messages it orders afterwards are delivered at once and without a gap.
func TestTokenIgnoredBySequencer(t *testing.T) {
	r := newRig(t, 3, TotalSequencer, netsim.LANLink)
	r.members["m00"].Receive("m01", &packet{Kind: kToken, From: "m01", ViewID: 1, Body: "m00", GlobalSeq: 100})
	r.members["m01"].Multicast("after", 8)
	r.sim.Run()
	for _, id := range r.ids {
		if got := r.deliv[id]; len(got) != 1 || got[0].Seq != 1 {
			t.Errorf("%s delivered %+v, want one message at position 1", id, got)
		}
	}
}

// pumpNet is the fuzzer's substrate: one FIFO queue of every message sent,
// which pump hands to the receivers' Receive in order until it is empty.
// No simulator, no goroutines: a member's sends land in the queue when its
// outbox drains, so a run is a plain loop on the calling goroutine.
type pumpNet struct {
	ids     []string
	members map[string]*Member
	deliv   map[string][]Delivery
	sent    map[string][]string // what each member multicast, in order
	queue   []pumpMsg
}

type pumpMsg struct {
	from, to string
	payload  any
}

// pumpEndpoint is one member's edge onto a pumpNet.
type pumpEndpoint struct {
	net *pumpNet
	id  string
}

func (e *pumpEndpoint) ID() string { return e.id }
func (e *pumpEndpoint) Send(to string, payload any, size int) error {
	e.net.queue = append(e.net.queue, pumpMsg{e.id, to, payload})
	return nil
}
func (e *pumpEndpoint) SetHandler(fabric.Handler) {}
func (e *pumpEndpoint) Close() error              { return nil }

// newPumpNet builds a three-member view m00..m02 under ord on a pumpNet and
// runs one multicast from each member through it.
func newPumpNet(t testing.TB, ord Ordering) *pumpNet {
	n := &pumpNet{ids: []string{"m00", "m01", "m02"}, members: make(map[string]*Member), deliv: make(map[string][]Delivery), sent: make(map[string][]string)}
	for _, id := range n.ids {
		m, err := NewMember(Config{
			Endpoint: &pumpEndpoint{net: n, id: id},
			Ordering: ord,
			Deliver:  func(d Delivery) { n.deliv[id] = append(n.deliv[id], d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		n.members[id] = m
	}
	v := NewView(1, n.ids)
	for _, m := range n.members {
		m.InstallView(v)
	}
	n.multicastAll("warm-up")
	return n
}

// multicastAll has every member multicast once, then pumps.
func (n *pumpNet) multicastAll(what string) {
	for _, id := range n.ids {
		body := what + " from " + id
		n.sent[id] = append(n.sent[id], body)
		_ = n.members[id].Multicast(body, 8)
	}
	n.pump()
}

func (n *pumpNet) pump() {
	for len(n.queue) > 0 {
		msg := n.queue[0]
		n.queue = n.queue[1:]
		if m := n.members[msg.to]; m != nil {
			m.Receive(msg.from, msg.payload)
		}
	}
}

// checkAgreement fails t unless every member delivered the same total
// order: on a lossless pump, with every message sent, a member that
// delivered less was reset or misled.
func (n *pumpNet) checkAgreement(t *testing.T, what string) {
	t.Helper()
	type slot struct {
		from string
		seq  uint64
	}
	lists := make(map[string][]slot)
	for _, id := range n.ids {
		for _, d := range n.deliv[id] {
			lists[id] = append(lists[id], slot{d.From, d.Seq})
		}
	}
	for _, id := range n.ids[1:] {
		if !slices.Equal(lists[id], lists[n.ids[0]]) {
			t.Fatalf("after %s: %s delivered %v, %s %v", what, id, lists[id], n.ids[0], lists[n.ids[0]])
		}
	}
}

// checkAuthors fails t unless each member's deliveries from every origin
// but sender are a prefix of what that origin multicast: sender may say
// what it likes in its own name, but nothing in another's, and no one
// outside the view is heard at all.
func (n *pumpNet) checkAuthors(t *testing.T, sender, what string) {
	t.Helper()
	for _, id := range n.ids {
		from := make(map[string][]string)
		for _, d := range n.deliv[id] {
			from[d.From] = append(from[d.From], fmt.Sprint(d.Body))
		}
		for origin, got := range from {
			if sent := n.sent[origin]; origin != sender && (len(got) > len(sent) || !slices.Equal(got, sent[:len(got)])) {
				t.Fatalf("after %s: %s delivered %q as %q's, which multicast %q", what, id, got, origin, sent)
			}
		}
	}
}

// FuzzMemberReceive: every packet the wire codec accepts is handed to a
// live FIFO member and a live TotalSequencer member of a three-member view
// that has carried traffic: first to m01 from m02, after which every member
// multicasts once more, then to the sequencer m00 from m01. No member may
// panic or hang. After m01's turn every member must have delivered only
// what its authors multicast, m02 aside, and the total order's members
// must agree on one order (a forged announcement would split it, and a
// reset would stall one member).
func FuzzMemberReceive(f *testing.F) {
	hostile := []*packet{
		{Kind: kNack, From: "m01", ViewID: 1, NackFrom: 1, NackTo: 1 << 40}, // a NACK past anything sent
		// An order announcement not from the sequencer, giving m02's second
		// multicast the next slot, which the sequencer gives m00's.
		{Kind: kOrder, From: "m01", ViewID: 1, GlobalSeq: 4, MsgID: msgID{Origin: "m02", N: 2}},
		// The same forged as the sequencer's forward, carrying a message.
		{Kind: kOrder, From: "m00", ViewID: 1, Body: "forged", Size: 8, GlobalSeq: 4, MsgID: msgID{Origin: "m02", N: 2}},
		// Data sent straight to a member that is not the sequencer.
		{Kind: kData, From: "m02", ViewID: 1, Body: "stray", Size: 8, MsgID: msgID{Origin: "m02", N: 2}},
		// m00's next FIFO message, forged by m02 in m00's name.
		{Kind: kData, From: "m00", ViewID: 1, Body: "forged", Size: 8, SenderSeq: 2},
		// The same in m02's own name, with m00 as the MsgID's origin.
		{Kind: kData, From: "m02", ViewID: 1, Body: "forged", Size: 8, SenderSeq: 2, MsgID: msgID{Origin: "m00", N: 2}},
	}
	for _, p := range samplePackets() {
		hostile = append(hostile, p)
	}
	for _, p := range hostile {
		body, err := p.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add(retiredViewBody()) // a view change from outside the view: it reset m01
	f.Fuzz(func(t *testing.T, data []byte) {
		if (&packet{}).ParseBinary(fabric.NewReader(string(data))) != nil {
			return
		}
		for _, ord := range []Ordering{FIFO, TotalSequencer} {
			n := newPumpNet(t, ord)
			// A fresh decode per receiver: a received packet may be kept.
			var p1, p0 packet
			if p1.ParseBinary(fabric.NewReader(string(data))) != nil || p0.ParseBinary(fabric.NewReader(string(data))) != nil {
				t.Fatal("a packet decoded once failed to decode again")
			}
			what := fmt.Sprintf("%v members receiving %+v", ord, p1)
			within(t, 5*time.Second, what, func() {
				n.members["m01"].Receive("m02", &p1)
				n.pump()
				n.multicastAll("after")
			})
			n.checkAuthors(t, "m02", what)
			if ord == TotalSequencer {
				n.checkAgreement(t, what)
			}
			within(t, 5*time.Second, what, func() {
				n.members["m00"].Receive("m01", &p0)
				n.pump()
			})
		}
	})
}
