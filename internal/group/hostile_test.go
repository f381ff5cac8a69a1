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

// FuzzMemberReceive: every packet the wire codec accepts is handed to a
// live FIFO member and a live TotalSequencer member (each the sequencer of
// a three-member view that has carried traffic), and the simulated network
// then runs whatever it provoked. Neither may panic or hang.
func FuzzMemberReceive(f *testing.F) {
	hostile := []*packet{
		{Kind: kView, From: "m01"}, // a view packet without its view
		{Kind: kNack, From: "m01", ViewID: 1, NackFrom: 1, NackTo: 1 << 40},                     // a NACK past anything sent
		{Kind: kOrder, From: "m01", ViewID: 1, GlobalSeq: 1, MsgID: msgID{Origin: "m02", N: 1}}, // an order announcement not from the sequencer
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
			r := newRig(t, 3, ord, netsim.LANLink)
			for _, id := range r.ids {
				r.members[id].Multicast("warm-up from "+id, 8)
			}
			r.sim.Run()
			var p packet // a fresh decode per member: a received packet may be kept
			if err := p.ParseBinary(fabric.NewReader(string(data))); err != nil {
				t.Fatal(err)
			}
			within(t, 5*time.Second, fmt.Sprintf("%v member receiving %+v", ord, p), func() {
				r.members["m00"].Receive("m01", &p)
				r.sim.Run()
			})
		}
	})
}
