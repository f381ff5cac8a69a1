package group

// A member's listener is reachable by any local process, so a packet the
// wire codec accepts may still be hostile. None may panic a member or hold
// its lock unboundedly.

import (
	"fmt"
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

// FuzzMemberReceive: every packet the wire codec accepts is handed to a
// live FIFO member and a live TotalSequencer member (each the sequencer of
// a three-member view that has carried traffic), and the simulated network
// then runs whatever it provoked. Neither may panic or hang.
func FuzzMemberReceive(f *testing.F) {
	hostile := []*packet{
		{Kind: kView, From: "m01"}, // a view packet without its view
		{Kind: kNack, From: "m01", ViewID: 1, NackFrom: 1, NackTo: 1 << 40}, // a NACK past anything sent
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
