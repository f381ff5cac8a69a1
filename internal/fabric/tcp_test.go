package fabric_test

// The send path over TCP recycles frame storage: Codec.Encode takes its
// buffer from a free list that FromTransport's Send refills once the
// transport has written the frame.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/session"
	"repro/internal/transport"
)

// listenTCP opens one TCP endpoint per id on loopback ports, all in book, so
// each can dial the others; they close when the test ends.
func listenTCP(t *testing.T, book *transport.AddressBook, ids ...string) []*transport.TCPEndpoint {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, len(ids))
	for i, id := range ids {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	return eps
}

func waitUntil(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
	}
}

// TestTransportSendAllocs pins the fabric send path over TCP: once the free
// list and the connection's write buffer are warm, encoding a MsgPost and
// writing it allocates nothing. The peer is a bare transport endpoint, so
// no decode runs in the measured process time.
func TestTransportSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	eps := listenTCP(t, transport.NewAddressBook(), "a", "b")
	var got atomic.Int64
	eps[1].SetHandler(func(string, []byte) { got.Add(1) })
	fa := fabric.FromTransport(eps[0], session.NewWireCodec())
	post := &session.MsgPost{Doc: "doc", From: "a", Kind: "eng/op", Body: "|" + strings.Repeat("QUJD", 20)}
	send := func() {
		if err := fa.Send("b", post, 0); err != nil {
			t.Fatal(err)
		}
	}
	send() // dial, and leave a frame on the free list
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("FromTransport Send of a MsgPost over TCP allocates %v objects, want 0", n)
	}
	waitUntil(t, func() bool { return got.Load() == 102 }, "every frame") // the warm-up, AllocsPerRun's own, then 100
}

// TestTransportLargeFrameSendAllocs: a frame past 4 KiB but within
// transport.FrameBufCap, here a join ack carrying a 200-item backlog, is
// recycled like a small one. Once the free list holds storage that size and
// the connection's write buffer has grown to it, sending the frame again
// allocates nothing. Under -race only the delivery is checked.
func TestTransportLargeFrameSendAllocs(t *testing.T) {
	eps := listenTCP(t, transport.NewAddressBook(), "a", "b")
	var got atomic.Int64
	var size atomic.Int64
	eps[1].SetHandler(func(_ string, data []byte) {
		size.Store(int64(len(data)))
		got.Add(1)
	})
	fa := fabric.FromTransport(eps[0], session.NewWireCodec())
	backlog := make([]session.Item, 200)
	for i := range backlog {
		backlog[i] = session.Item{Seq: uint64(i + 1), From: "alice", Kind: "eng/op", Body: "|" + strings.Repeat("QUJD", 12), At: time.Second}
	}
	ack := &session.MsgJoinAck{Doc: "doc", Mode: session.Synchronous, Backlog: backlog, Members: []string{"alice", "bob"}}
	send := func() {
		if err := fa.Send("b", ack, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Every slot of the free list may hold small storage an earlier send
	// left there; a send takes the oldest, so 17 sends leave only large ones.
	const warm = 17
	for range warm {
		send()
	}
	sent := int64(warm)
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, send); n != 0 {
			t.Errorf("FromTransport Send of a %d-byte join ack over TCP allocates %v objects, want 0", size.Load(), n)
		}
		sent += 101 // AllocsPerRun's own run, then 100
	}
	waitUntil(t, func() bool { return got.Load() == sent }, "every frame")
	if n := size.Load(); n <= 4<<10 || n > transport.FrameBufCap {
		t.Fatalf("the join ack is a %d-byte frame, want one past 4 KiB and within %d", n, transport.FrameBufCap)
	}
}

// TestTransportConcurrentSendsDecodeIntact: goroutines sharing one
// FromTransport send posts of mixed sizes, some past what the free list
// keeps, to two peers at once. Every frame must decode to exactly the post
// sent: frame storage handed to a later Encode while a transport still
// reads it would show up here as a corrupt or mismatched post (and under
// -race as a data race).
func TestTransportConcurrentSendsDecodeIntact(t *testing.T) {
	eps := listenTCP(t, transport.NewAddressBook(), "a", "b", "c")
	codec := session.NewWireCodec()
	fa := fabric.FromTransport(eps[0], codec)
	var mu sync.Mutex
	got := make(map[string]session.MsgPost) // by Doc, which is unique per post
	frames := 0
	var peers []*fabric.TransportEndpoint
	for _, ep := range eps[1:] {
		p := fabric.FromTransport(ep, codec)
		p.SetHandler(func(_ string, payload any, _ int) {
			m := payload.(*session.MsgPost)
			mu.Lock()
			got[m.Doc] = *m
			frames++
			mu.Unlock()
		})
		peers = append(peers, p)
	}
	const senders, perSender = 4, 150
	sizes := []int{8, 200, 1500, 3900, 6000, transport.FrameBufCap + 1000}
	want := make(map[string]session.MsgPost, senders*perSender)
	var wg sync.WaitGroup
	for g := range senders {
		posts := make([]session.MsgPost, perSender)
		for i := range posts {
			fill := string(rune('a' + (g*perSender+i)%26))
			posts[i] = session.MsgPost{
				Doc:  fmt.Sprintf("g%d-%d", g, i),
				From: "a",
				Kind: "chat",
				Body: strings.Repeat(fill, sizes[(g+i)%len(sizes)]),
			}
			want[posts[i].Doc] = posts[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range posts {
				to := []string{"b", "c"}[i%2]
				if err := fa.Send(to, &posts[i], 0); err != nil {
					t.Errorf("send %s to %s: %v", posts[i].Doc, to, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var dropped uint64
	waitUntil(t, func() bool {
		dropped = peers[0].Dropped() + peers[1].Dropped()
		mu.Lock()
		defer mu.Unlock()
		return frames+int(dropped) == len(want)
	}, "every frame")
	if dropped != 0 {
		t.Fatalf("%d of %d frames did not decode", dropped, len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	for doc, w := range want {
		if g := got[doc]; g != w {
			t.Fatalf("post %s arrived as {%q %q %q, %d-byte body}, sent {%q %q %q, %d-byte body}",
				doc, g.Doc, g.From, g.Kind, len(g.Body), w.Doc, w.From, w.Kind, len(w.Body))
		}
	}
}

// TestTransportSelfSend: a FromTransport send to its own id is an ordinary
// transport send. From a listening endpoint it dials its own listener and
// arrives on a reader goroutine, from "a", sized as the frame, as a decoded
// payload rather than the sender's pointer. A dial-only endpoint has no
// address to reach itself at, so its self-send fails with
// transport.ErrUnknownPeer and delivers nothing.
func TestTransportSelfSend(t *testing.T) {
	codec := session.NewWireCodec()
	post := &session.MsgPost{Doc: "doc", From: "a", Kind: "chat", Body: "to myself"}
	frame, err := codec.Encode(post)
	if err != nil {
		t.Fatal(err)
	}
	// An arrival is read inside the handler call: a decoded post is lent
	// to the handler (fabric.Scoped), so the test keeps a copy of it.
	type arrival struct {
		from    string
		post    *session.MsgPost // a copy of the delivered post; nil for another payload
		senders bool             // the delivered pointer was the sender's own
		size    int
	}
	// selfSend sends post from a to itself and returns what arrived within
	// wait and the Send error.
	selfSend := func(t *testing.T, tep *transport.TCPEndpoint, wait time.Duration) (*arrival, error) {
		got := make(chan arrival, 1)
		fa := fabric.FromTransport(tep, codec)
		t.Cleanup(func() { fa.Close() })
		fa.SetHandler(func(from string, payload any, size int) {
			a := arrival{from: from, size: size}
			if p, ok := payload.(*session.MsgPost); ok {
				a.post, a.senders = new(session.MsgPost), p == post
				*a.post = *p
			}
			got <- a
		})
		err := fa.Send("a", post, 0)
		select {
		case a := <-got:
			return &a, err
		case <-time.After(wait):
			return nil, err
		}
	}
	t.Run("ListenTCP", func(t *testing.T) {
		a, err := selfSend(t, listenTCP(t, transport.NewAddressBook(), "a")[0], 5*time.Second)
		if err != nil || a == nil {
			t.Fatalf("self-send: error %v, arrival %v", err, a)
		}
		if a.post == nil || a.senders || *a.post != *post {
			t.Fatalf("self-send delivered %#v (the sender's pointer: %v), want a decoded copy of %#v", a.post, a.senders, post)
		}
		if a.from != "a" || a.size != len(frame) {
			t.Errorf("self-send delivered from %q size %d, want from \"a\" size %d (the frame length)", a.from, a.size, len(frame))
		}
	})
	t.Run("DialTCP", func(t *testing.T) {
		tep, err := transport.DialTCP("a", transport.NewAddressBook())
		if err != nil {
			t.Fatal(err)
		}
		a, err := selfSend(t, tep, 20*time.Millisecond)
		if !errors.Is(err, transport.ErrUnknownPeer) || a != nil {
			t.Fatalf("dial-only self-send: error %v, arrival %v; want %v and none", err, a, transport.ErrUnknownPeer)
		}
	})
}
