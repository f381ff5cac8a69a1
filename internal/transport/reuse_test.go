package transport_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/session"
	"repro/internal/transport"
)

// TestTCPReusedBufferDecodedPayloadsIntact: the TCP endpoint reads every
// frame of a connection into one buffer, so what the fabric decodes from
// frame 1 must survive frame 2 landing in the same bytes — and a frame
// past the buffer's cap, then a small one, must still round-trip. A decoded
// post is lent to the handler (fabric.Scoped), so the handler copies the
// struct, as a receiver that keeps a post must; the copy's strings are the
// decode's own, which is what must not alias the transport's buffer.
func TestTCPReusedBufferDecodedPayloadsIntact(t *testing.T) {
	codec := session.NewWireCodec()
	book := transport.NewAddressBook()
	a, err := transport.ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	b, err := transport.ListenTCP("b", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := fabric.FromTransport(a, codec), fabric.FromTransport(b, codec)
	defer fa.Close()
	defer fb.Close()
	got := make(chan session.MsgPost, 8)
	fb.SetHandler(func(_ string, payload any, _ int) { got <- *payload.(*session.MsgPost) })
	recv := func() session.MsgPost {
		t.Helper()
		select {
		case m := <-got:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("timeout waiting for a frame")
			return session.MsgPost{}
		}
	}

	sent := []session.MsgPost{
		{Doc: "d1", From: "alice", Kind: "chat", Body: "first frame"},
		{Doc: "d2", From: "bobby", Kind: "edit", Body: "FIRST FRAME"}, // same size: same bytes of the buffer
		{Doc: "d3", From: "carol", Kind: "bulk", Body: strings.Repeat("x", 100<<10)},
		{Doc: "d4", From: "alice", Kind: "chat", Body: "after the big one"},
	}
	var first session.MsgPost
	for i := range sent {
		if err := fa.Send("b", &sent[i], 0); err != nil {
			t.Fatal(err)
		}
		m := recv()
		if m != sent[i] {
			t.Fatalf("frame %d decoded as %+v", i, m)
		}
		if i == 0 {
			first = m
		}
		if first != sent[0] {
			t.Fatalf("frame 1's payload changed to %+v after frame %d", first, i+1)
		}
	}
}
