package session

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/transport"
)

// TestSessionOverHub runs a real host and client over the in-memory
// transport with JSON wire encoding — the same path cmd/sessiond uses over
// TCP. Host and Client self-synchronize; the test only guards its own
// slices.
func TestSessionOverHub(t *testing.T) {
	hub := transport.NewHub()
	hostEP := fabric.FromTransport(hub.MustAttach("host"), NewWireCodec())
	cliEP := fabric.FromTransport(hub.MustAttach("alice"), NewWireCodec())
	defer hostEP.Close()
	defer cliEP.Close()

	start := time.Now()
	clock := func() time.Duration { return time.Since(start) }
	NewHost(hostEP, Synchronous, clock)

	var mu sync.Mutex
	var items []Item
	joined := make(chan struct{})
	cli := NewClientForDoc(cliEP, "host", "")
	cli.OnJoined = func(Mode, []string) { close(joined) }
	cli.OnItem = func(it Item) {
		mu.Lock()
		items = append(items, it)
		mu.Unlock()
	}

	if err := cli.Join(0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("join timeout")
	}

	// A second participant posts; alice receives the JSON-decoded item.
	bobEP := fabric.FromTransport(hub.MustAttach("bob"), NewWireCodec())
	defer bobEP.Close()
	bob := NewClientForDoc(bobEP, "host", "")
	bobJoined := make(chan struct{})
	bob.OnJoined = func(Mode, []string) { close(bobJoined) }
	if err := bob.Join(0); err != nil {
		t.Fatal(err)
	}
	<-bobJoined
	if err := bob.Post("chat", "hello over the wire", 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(items)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("item never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if items[0].Body != "hello over the wire" || items[0].From != "bob" {
		t.Errorf("item = %+v", items[0])
	}
}

func TestWireCodecUnknownAndGarbage(t *testing.T) {
	c := NewWireCodec()
	if _, err := c.Decode([]byte("{broken")); err == nil {
		t.Error("garbage should error")
	}
	other := fabric.NewCodec()
	other.Register("other/tag", fabric.Hello{})
	data, err := other.Encode(fabric.Hello{Addr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := c.Decode(data)
	if err != nil || payload != nil {
		t.Errorf("unknown tag = %v, %v; want nil, nil", payload, err)
	}
}

func TestWireEndpointRejectsForeignPayload(t *testing.T) {
	hub := transport.NewHub()
	ep := fabric.FromTransport(hub.MustAttach("x"), NewWireCodec())
	defer ep.Close()
	if err := ep.Send("x", 42, 0); err == nil {
		t.Error("non-session payload should be rejected")
	}
}

func TestWireCodecRoundTripsEveryMessage(t *testing.T) {
	c := NewWireCodec()
	msgs := []any{
		&MsgJoin{From: "a", Since: 2, State: Away},
		&MsgJoinAck{Mode: Asynchronous, Backlog: []Item{{Seq: 1, From: "b", Kind: "chat", Body: "x"}}, Members: []string{"a", "b"}},
		&MsgPost{From: "a", Kind: "edit", Body: "insert"},
		&MsgItems{Items: []Item{{Seq: 2, From: "a"}}},
		&MsgPoll{From: "a", Since: 1},
		&MsgMode{Mode: Synchronous},
		&MsgPresence{From: "a", State: Active},
		&MsgLeave{From: "a"},
	}
	for _, m := range msgs {
		data, err := c.Encode(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		got, err := c.Decode(data)
		if err != nil || got == nil {
			t.Fatalf("decode %T: %v, %v", m, got, err)
		}
	}
}
