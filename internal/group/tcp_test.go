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
// loopback TCP multicast concurrently. Each multicast puts exactly six
// frames on the sockets — its data to the three others and the sequencer's
// order announcement to the three others — and none addressed to self,
// yet every member, the sender included, delivers every message in the
// same total order.
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
	if frames != int64(6*total) || toSelf != 0 {
		t.Errorf("%d multicasts put %d frames on the sockets, %d of them to self; want %d and 0", total, frames, toSelf, 6*total)
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

// TestOldPacketFrameDroppedOverTCP: a frame from a tree that wrote every
// field of the packet, under the tag "group/packet" (here the "order"
// sample as that tree framed it), reaches a member's endpoint as one
// counted drop and is delivered to nothing; a current frame sent after it
// on the same conn is delivered.
func TestOldPacketFrameDroppedOverTCP(t *testing.T) {
	old, err := hex.DecodeString("c501010c67726f75702f7061636b65740000001502017303000000000161010b000000000000000000")
	if err != nil {
		t.Fatal(err)
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
	for _, frame := range [][]byte{old, current} {
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
	if d := ep.Dropped(); d != 1 {
		t.Errorf("Dropped() = %d, want 1", d)
	}
	select {
	case p := <-got:
		t.Errorf("a second delivery, %#v", p)
	default:
	}
}
