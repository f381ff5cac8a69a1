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

// TestReceiveViewPacketWithoutView: a kView packet whose view is absent
// decodes cleanly, and the member drops it instead of dereferencing it.
func TestReceiveViewPacketWithoutView(t *testing.T) {
	r := newRig(t, 3, TotalSequencer, netsim.LANLink)
	m := r.members["m00"]
	before := m.View()
	within(t, 5*time.Second, "Receive of a view packet without a view", func() {
		m.Receive("m01", &packet{Kind: kView, From: "m01"})
	})
	if got := m.View(); got.ID != before.ID || len(got.Members) != len(before.Members) {
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

// pumpNet is the fuzzer's substrate: one FIFO queue of every message sent,
// which pump hands to the receivers' Receive in order until it is empty.
// No simulator, no goroutines: a member's sends land in the queue when its
// outbox drains, so a run is a plain loop on the calling goroutine.
type pumpNet struct {
	ids     []string
	members map[string]*Member
	deliv   map[string][]Delivery
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
	n := &pumpNet{ids: []string{"m00", "m01", "m02"}, members: make(map[string]*Member), deliv: make(map[string][]Delivery)}
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
		_ = n.members[id].Multicast(what+" from "+id, 8)
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

// checkAgreement fails t unless the members still in view v delivered the
// same total order: every list a prefix of the longest.
func (n *pumpNet) checkAgreement(t *testing.T, v View, what string) {
	t.Helper()
	type slot struct {
		from string
		seq  uint64
	}
	var longest []slot
	lists := make(map[string][]slot)
	for _, id := range n.ids {
		if got := n.members[id].View(); got.ID != v.ID || !slices.Equal(got.Members, v.Members) {
			continue // a hostile view installed here; its order is its own
		}
		for _, d := range n.deliv[id] {
			lists[id] = append(lists[id], slot{d.From, d.Seq})
		}
		if len(lists[id]) > len(longest) {
			longest = lists[id]
		}
	}
	for id, l := range lists {
		if !slices.Equal(l, longest[:len(l)]) {
			t.Fatalf("after %s: %s delivered %v, another member %v", what, id, l, longest)
		}
	}
}

// FuzzMemberReceive: every packet the wire codec accepts is handed to a
// live FIFO member and a live TotalSequencer member of a three-member view
// that has carried traffic: first to m01, after which every member
// multicasts once more, then to the sequencer m00. No member may panic or
// hang, and after m01's turn the total order's members whose view the
// packet left alone must still agree on one order (a forged announcement
// would split it).
func FuzzMemberReceive(f *testing.F) {
	hostile := []*packet{
		{Kind: kView, From: "m01"}, // a view packet without its view
		{Kind: kNack, From: "m01", ViewID: 1, NackFrom: 1, NackTo: 1 << 40}, // a NACK past anything sent
		// An order announcement not from the sequencer, giving m02's second
		// multicast the next slot, which the sequencer gives m00's.
		{Kind: kOrder, From: "m01", ViewID: 1, GlobalSeq: 4, MsgID: msgID{Origin: "m02", N: 2}},
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if (&packet{}).ParseBinary(fabric.NewReader(string(data))) != nil {
			return
		}
		for _, ord := range []Ordering{FIFO, TotalSequencer} {
			n := newPumpNet(t, ord)
			view := n.members["m01"].View()
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
			if ord == TotalSequencer {
				n.checkAgreement(t, view, what)
			}
			within(t, 5*time.Second, what, func() {
				n.members["m00"].Receive("m01", &p0)
				n.pump()
			})
		}
	})
}
