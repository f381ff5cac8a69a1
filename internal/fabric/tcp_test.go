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
	sizes := []int{8, 200, 1500, 3900, 6000}
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

// countingTransport counts the frames a fabric adapter hands its transport.
type countingTransport struct {
	transport.Endpoint
	sends atomic.Int64
}

func (c *countingTransport) Send(to string, data []byte) error {
	c.sends.Add(1)
	return c.Endpoint.Send(to, data)
}

// TestTransportSelfSendSkipsSocket: a FromTransport send to its own id, from
// a listening endpoint and from a dial-only one, reaches its own handler
// with the sender's pointer and the frame length, and makes no transport
// Send. A self-send before SetHandler is held and delivered first, a
// payload the codec refuses errs exactly as it would to a peer, and after
// Close a self-send is refused with the transport's closed error.
func TestTransportSelfSendSkipsSocket(t *testing.T) {
	codec := session.NewWireCodec()
	post := &session.MsgPost{Doc: "doc", From: "a", Kind: "chat", Body: "to myself"}
	frame, err := codec.Encode(post)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"ListenTCP", "DialTCP"} {
		t.Run(kind, func(t *testing.T) {
			book := transport.NewAddressBook()
			peer := listenTCP(t, book, "b")[0]
			var peerGot atomic.Int64
			peer.SetHandler(func(string, []byte) { peerGot.Add(1) })
			var tep *transport.TCPEndpoint
			if kind == "ListenTCP" {
				tep = listenTCP(t, book, "a")[0]
			} else if tep, err = transport.DialTCP("a", book); err != nil {
				t.Fatal(err)
			}
			ct := &countingTransport{Endpoint: tep}
			fa := fabric.FromTransport(ct, codec)
			defer fa.Close()

			early := &session.MsgPost{Doc: "doc", From: "a", Kind: "chat", Body: "before the handler"}
			if err := fa.Send("a", early, 0); err != nil {
				t.Fatalf("self-send before SetHandler: %v", err)
			}
			type arrival struct {
				from    string
				payload any
				size    int
			}
			var got []arrival // delivered on the sending goroutine: no lock needed
			fa.SetHandler(func(from string, payload any, size int) {
				got = append(got, arrival{from, payload, size})
			})
			if err := fa.Send("a", post, 0); err != nil {
				t.Fatalf("self-send: %v", err)
			}
			if len(got) != 2 || got[0].payload != early || got[1].payload != post {
				t.Fatalf("self-sends delivered %+v, want the early post then the post, by pointer", got)
			}
			if a := got[1]; a.from != "a" || a.size != len(frame) {
				t.Errorf("self-send delivered from %q size %d, want from \"a\" size %d (the frame length)", a.from, a.size, len(frame))
			}
			if n := ct.sends.Load(); n != 0 {
				t.Errorf("self-sends made %d transport sends, want 0", n)
			}

			// The same unregistered payload fails the same way to self and to a peer.
			bad := struct{ X int }{1}
			errSelf, errPeer := fa.Send("a", bad, 0), fa.Send("b", bad, 0)
			if errSelf == nil || errPeer == nil || errSelf.Error() != errPeer.Error() {
				t.Errorf("unregistered payload: self-send error %v, peer send error %v; want the same error", errSelf, errPeer)
			}
			if n := ct.sends.Load(); n != 0 {
				t.Errorf("refused payloads made %d transport sends, want 0", n)
			}
			if err := fa.Send("b", post, 0); err != nil {
				t.Fatalf("send to peer: %v", err)
			}
			if n := ct.sends.Load(); n != 1 {
				t.Errorf("one peer send made %d transport sends, want 1", n)
			}
			waitUntil(t, func() bool { return peerGot.Load() == 1 }, "the peer's frame")

			if err := fa.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fa.Send("a", post, 0); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("self-send after Close = %v, want %v", err, transport.ErrClosed)
			}
			if len(got) != 2 || ct.sends.Load() != 1 {
				t.Errorf("self-send after Close: %d deliveries and %d transport sends, want 2 and 1", len(got), ct.sends.Load())
			}
			if err := fa.Send("b", post, 0); !errors.Is(err, transport.ErrClosed) {
				t.Errorf("peer send after Close = %v, want %v (the self-send's error)", err, transport.ErrClosed)
			}
		})
	}
}
