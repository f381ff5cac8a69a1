package group

// The ordering layer on the real substrate: members on loopback TCP
// endpoints, their frames counted at the transport.

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/transport"
)

// frameCounter counts the frames a member's fabric adapter hands its TCP
// endpoint, and those of them addressed to the endpoint itself.
type frameCounter struct {
	transport.Endpoint
	frames, toSelf atomic.Int64
}

func (c *frameCounter) Send(to string, data []byte) error {
	c.frames.Add(1)
	if to == c.ID() {
		c.toSelf.Add(1)
	}
	return c.Endpoint.Send(to, data)
}

// TestSequencerOverTCPSkipsSelfFrames: four TotalSequencer members on
// loopback TCP multicast concurrently. A multicast from a member other than
// the sequencer puts exactly four frames on the sockets — its data to the
// sequencer, the message forwarded in the sequencer's order to the two
// others, and the body-less order back to the sender — and one from the
// sequencer three, its order to the three others; none is addressed to
// self, yet every member, the sender included, delivers every message in
// the same total order.
func TestSequencerOverTCPSkipsSelfFrames(t *testing.T) {
	const perMember = 5
	ids := []string{"m0", "m1", "m2", "m3"}
	book := transport.NewAddressBook()
	var mu sync.Mutex
	deliv := make(map[string][]string)
	counters := make([]*frameCounter, len(ids))
	members := make([]*Member, len(ids))
	for i, id := range ids {
		tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		counters[i] = &frameCounter{Endpoint: tep}
		ep := fabric.FromTransport(counters[i], wireCodec())
		t.Cleanup(func() { ep.Close() })
		members[i], err = NewMember(Config{
			Endpoint: ep,
			Ordering: TotalSequencer,
			Deliver: func(d Delivery) {
				mu.Lock()
				deliv[id] = append(deliv[id], d.Body.(string))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	view := NewView(1, ids)
	for _, m := range members {
		m.InstallView(view)
	}
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range perMember {
				if err := m.Multicast(fmt.Sprintf("%s-%d", ids[i], k), 8); err != nil {
					t.Errorf("%s multicast %d: %v", ids[i], k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	total := len(ids) * perMember
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		done := true
		for _, id := range ids {
			done = done && len(deliv[id]) == total
		}
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("deliveries after 5s: %v", deliv)
		}
	}
	var frames, toSelf int64
	for _, c := range counters {
		frames += c.frames.Load()
		toSelf += c.toSelf.Load()
	}
	if want := int64(len(ids)*(total-perMember) + (len(ids)-1)*perMember); frames != want || toSelf != 0 {
		t.Errorf("%d multicasts put %d frames on the sockets, %d of them to self; want %d and 0", total, frames, toSelf, want)
	}
	mu.Lock()
	defer mu.Unlock()
	want := deliv[ids[0]]
	for _, id := range ids[1:] {
		if !slices.Equal(deliv[id], want) {
			t.Errorf("%s delivered %v, %s delivered %v", id, deliv[id], ids[0], want)
		}
	}
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if len(slices.Compact(sorted)) != total {
		t.Errorf("delivered %v: a message twice", want)
	}
}

// TestOldPacketFrameDroppedOverTCP: frames from older trees — one that
// wrote every field of the packet, under the tag "group/packet", and one
// whose sequencer broadcast data and sent every member a body-less order,
// under "group/pkt/v2" (each the "order" sample as that tree framed it) —
// reach a member's endpoint as one counted drop each and are delivered to
// nothing; a current frame sent after them on the same conn is delivered.
// Both carry the current frame version, 2 (those trees wrote 1), so what
// drops them is their tag, not the version gate.
func TestOldPacketFrameDroppedOverTCP(t *testing.T) {
	var old [][]byte
	for _, h := range []string{
		"c502010c67726f75702f7061636b65740000001502017303000000000161010b000000000000000000",
		"c502010c67726f75702f706b742f76320000000902530173030161010b",
	} {
		frame, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		// A tag nothing registered decodes to nothing, with no error.
		if p, err := wireCodec().Decode(frame); p != nil || err != nil {
			t.Fatalf("old frame %s decoded to (%v, %v), want it skipped by its tag", h, p, err)
		}
		old = append(old, frame)
	}
	book := transport.NewAddressBook()
	tep, err := transport.ListenTCP("m0", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	ep := fabric.FromTransport(tep, wireCodec())
	t.Cleanup(func() { ep.Close() })
	got := make(chan any, 2)
	ep.SetHandler(func(from string, payload any, size int) { got <- payload })
	peer, err := transport.DialTCP("m1", book)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	current, err := wireCodec().Encode(samplePackets()["order"])
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range append(old, current) {
		if err := peer.Send("m0", frame); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-got:
		if want := samplePackets()["order"]; !reflect.DeepEqual(p, want) {
			t.Fatalf("delivered %#v, want the current frame's %#v", p, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the current frame was not delivered within 5s")
	}
	if d := ep.Dropped(); d != uint64(len(old)) {
		t.Errorf("Dropped() = %d, want %d", d, len(old))
	}
	select {
	case p := <-got:
		t.Errorf("a second delivery, %#v", p)
	default:
	}
}

// heardFrom counts, after the member's handler returns, the packets its
// endpoint delivers from one sender.
type heardFrom struct {
	fabric.Endpoint
	sender string
	n      *atomic.Int64
}

func (h heardFrom) SetHandler(fn fabric.Handler) {
	h.Endpoint.SetHandler(func(from string, payload any, size int) {
		fn(from, payload, size)
		if from == h.sender {
			h.n.Add(1)
		}
	})
}

// TestOutsiderOverTCPDropped: a third loopback endpoint, x9, outside the
// view of two sequencer-ordered members, sends the sequencer m0 data in
// m1's name and in its own. Once m0 has handled both, m1 multicasts; every
// member delivers m1's message and nothing else. (A batch, which would
// carry forged data inline, no longer crosses the wire: its encoding is
// refused, TestRetiredPacketsRefused.)
func TestOutsiderOverTCPDropped(t *testing.T) {
	ids := []string{"m0", "m1"}
	book := transport.NewAddressBook()
	var mu sync.Mutex
	deliv := make(map[string][]string)
	var heard atomic.Int64
	members := make([]*Member, len(ids))
	for i, id := range ids {
		tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		ep := fabric.FromTransport(tep, wireCodec())
		t.Cleanup(func() { ep.Close() })
		members[i], err = NewMember(Config{
			Endpoint: heardFrom{ep, "x9", &heard},
			Ordering: TotalSequencer,
			Deliver: func(d Delivery) {
				mu.Lock()
				deliv[id] = append(deliv[id], d.From+": "+d.Body.(string))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	view := NewView(1, ids)
	for _, m := range members {
		m.InstallView(view)
	}
	dialer, err := transport.DialTCP("x9", book)
	if err != nil {
		t.Fatal(err)
	}
	x9 := fabric.FromTransport(dialer, wireCodec())
	t.Cleanup(func() { x9.Close() })
	sends := []*packet{
		{Kind: kData, From: "m1", ViewID: 1, Body: "forged", Size: 8, MsgID: msgID{Origin: "m1", N: 1}},
		{Kind: kData, From: "x9", ViewID: 1, Body: "outsider", Size: 8, MsgID: msgID{Origin: "x9", N: 1}},
	}
	for _, p := range sends {
		if err := x9.Send("m0", p, 64); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); heard.Load() < int64(len(sends)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("m0 handled %d of x9's %d packets in 5s", heard.Load(), len(sends))
		}
	}
	if err := members[1].Multicast("real", 8); err != nil {
		t.Fatal(err)
	}
	want := []string{"m1: real"}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		done := len(deliv["m0"]) >= 1 && len(deliv["m1"]) >= 1
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("deliveries after 5s: %v", deliv)
		}
	}
	time.Sleep(10 * time.Millisecond) // room for a delivery that should not come
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		if !slices.Equal(deliv[id], want) {
			t.Errorf("%s delivered %q, want %q", id, deliv[id], want)
		}
	}
}

// TestInProcessPacketsCountedOverTCP: the packet codec carries only the
// sequencer and token orderings' fields, so over a byte codec a FIFO or
// causal multicast and a group call cannot be framed. Each refused packet
// is a counted drop of the sender's endpoint, not a silent loss, even where
// an outbox discards the send's error; an unbatched sequencer, token or
// unordered multicast frames with no drop.
func TestInProcessPacketsCountedOverTCP(t *testing.T) {
	for _, c := range []struct {
		name     string
		ordering Ordering
		send     func(m *Member) error
		drops    bool
	}{
		{"fifo multicast", FIFO, func(m *Member) error { return m.Multicast("x", 1) }, true},
		{"causal multicast", Causal, func(m *Member) error { return m.Multicast("x", 1) }, true},
		{"call", TotalSequencer, func(m *Member) error { return m.Call("op", "x", CallOpts{}, func([]Reply, error) {}) }, true},
		{"sequencer multicast", TotalSequencer, func(m *Member) error { return m.Multicast("x", 1) }, false},
		{"token multicast", TotalToken, func(m *Member) error { return m.Multicast("x", 1) }, false},
		{"unordered multicast", Unordered, func(m *Member) error { return m.Multicast("x", 1) }, false},
	} {
		book := transport.NewAddressBook()
		ids := []string{"m0", "m1"}
		eps := make([]*fabric.TransportEndpoint, len(ids))
		members := make([]*Member, len(ids))
		for i, id := range ids {
			tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = fabric.FromTransport(tep, wireCodec())
			t.Cleanup(func() { eps[i].Close() })
			if members[i], err = NewMember(Config{Endpoint: eps[i], Ordering: c.ordering, Deliver: func(Delivery) {}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range members {
			m.InstallView(NewView(1, ids))
		}
		// m1 sends: it is not the sequencer, so its multicast leaves the
		// member whatever the ordering. A send the member performs at once
		// also returns the codec's refusal.
		err := c.send(members[1])
		if err != nil && !c.drops {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := fabric.DroppedOf(eps[1]); (d > 0) != c.drops {
			t.Errorf("%s: %d counted drops at the sender (error %v), want drops %v", c.name, d, err, c.drops)
		}
	}
}
