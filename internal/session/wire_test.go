package session

import (
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/transport"
)

// tcpEndpoint opens a fabric endpoint with the wire codec on a loopback TCP
// endpoint in book, closed when the test ends.
func tcpEndpoint(t *testing.T, id string, book *transport.AddressBook) fabric.Endpoint {
	t.Helper()
	tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	ep := fabric.FromTransport(tep, NewWireCodec())
	t.Cleanup(func() { ep.Close() })
	return ep
}

// TestSessionOverTCP runs a real host and client over loopback TCP with the
// binary wire codec — the path cmd/sessiond serves. Host and Client
// self-synchronize; the test only guards its own slices.
func TestSessionOverTCP(t *testing.T) {
	book := transport.NewAddressBook()
	hostEP := tcpEndpoint(t, "host", book)
	cliEP := tcpEndpoint(t, "alice", book)

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

	// A second participant posts; alice receives the decoded item.
	bob := NewClientForDoc(tcpEndpoint(t, "bob", book), "host", "")
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
	ep := tcpEndpoint(t, "x", transport.NewAddressBook())
	if err := ep.Send("x", 42, 0); err == nil {
		t.Error("non-session payload should be rejected")
	}
}

// TestSetModeOverTCPIsCountedDrop: MsgMode is not on the wire, so a
// TCP-hosted SetMode changes the host's mode, its announcement is a counted
// drop of the host's endpoint, and the client keeps the mode it joined in.
func TestSetModeOverTCPIsCountedDrop(t *testing.T) {
	book := transport.NewAddressBook()
	hostEP := tcpEndpoint(t, "host", book)
	start := time.Now()
	h := NewHost(hostEP, Synchronous, func() time.Duration { return time.Since(start) })
	cli := NewClientForDoc(tcpEndpoint(t, "alice", book), "host", "")
	joined := make(chan struct{})
	cli.OnJoined = func(Mode, []string) { close(joined) }
	if err := cli.Join(0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("join timeout")
	}
	before := fabric.DroppedOf(hostEP)
	h.Host("").SetMode(Asynchronous)
	if got := h.Host("").Mode(); got != Asynchronous {
		t.Fatalf("host mode %v after SetMode(Asynchronous)", got)
	}
	// The announcement is sent by whichever drain is running, which may
	// still be the one that answered the join.
	for deadline := time.Now().Add(5 * time.Second); fabric.DroppedOf(hostEP)-before != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("SetMode left %d counted drops at the host, want 1 (its MsgMode to alice)", fabric.DroppedOf(hostEP)-before)
		}
	}
	if got := cli.Mode(); got != Synchronous {
		t.Errorf("client mode %v, want the Synchronous it joined in", got)
	}
}

// TestTCPCloseLosesNoPost: a participant that posts and closes at once,
// while another member's posts are being pushed to it, has every post
// logged, in each of 20 rounds. Closed with pushes unread, its connection
// would reset, and the reset discards the posts the host had not read yet;
// so Close half-closes and reads on to the host's end first.
func TestTCPCloseLosesNoPost(t *testing.T) {
	const rounds, perRound = 20, 50
	book := transport.NewAddressBook()
	h := NewHost(tcpEndpoint(t, "host", book), Synchronous, func() time.Duration { return 0 })
	join := func(c *Client) {
		joined := make(chan struct{})
		c.OnJoined = func(Mode, []string) { close(joined) }
		if err := c.Join(0); err != nil {
			t.Fatal(err)
		}
		select {
		case <-joined:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s's join timed out", c.ID())
		}
	}
	post := func(c *Client, i int) {
		if kind, body := postOf(c.ID(), i); c.Post(kind, body, 0) != nil {
			t.Errorf("%s's post %d failed", c.ID(), i)
		}
	}
	b := NewClientForDoc(tcpEndpoint(t, "b", book), "host", "")
	join(b)
	var slowest time.Duration
	for r := range rounds {
		tep, err := transport.DialTCP("a", book)
		if err != nil {
			t.Fatal(err)
		}
		ep := fabric.FromTransport(tep, NewWireCodec())
		a := NewClientForDoc(ep, "host", "")
		join(a)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perRound {
				post(b, r*perRound+i)
			}
		}()
		for i := range perRound {
			post(a, r*perRound+i)
		}
		start := time.Now()
		ep.Close()
		slowest = max(slowest, time.Since(start))
		wg.Wait()
	}
	checkLog(t, h.Host(""), 2*rounds*perRound)
	t.Logf("slowest Close %v", slowest)
}
