package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestHubBasicDelivery(t *testing.T) {
	h := NewHub()
	a := h.MustAttach("a")
	b := h.MustAttach("b")
	defer a.Close()
	defer b.Close()

	var mu sync.Mutex
	var got []string
	b.SetHandler(func(from string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, from+":"+string(data))
	})
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, "delivery")
	mu.Lock()
	defer mu.Unlock()
	if got[0] != "a:hello" {
		t.Errorf("got %q", got[0])
	}
}

func TestHubFIFOPerReceiver(t *testing.T) {
	h := NewHub()
	a := h.MustAttach("a")
	b := h.MustAttach("b")
	defer a.Close()
	defer b.Close()

	const n = 200
	var mu sync.Mutex
	var got []string
	b.SetHandler(func(_ string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, string(data))
	})
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	}, "all messages")
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if got[i] != fmt.Sprintf("%d", i) {
			t.Fatalf("FIFO violated at %d: %q", i, got[i])
		}
	}
}

func TestHubUnknownPeerAndDuplicate(t *testing.T) {
	h := NewHub()
	a := h.MustAttach("a")
	defer a.Close()
	if err := a.Send("ghost", []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Send to ghost = %v", err)
	}
	if _, err := h.Attach("a"); err == nil {
		t.Error("duplicate attach should fail")
	}
}

func TestHubSendAfterClose(t *testing.T) {
	h := NewHub()
	a := h.MustAttach("a")
	h.MustAttach("b")
	a.Close()
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestHubSendToClosedPeer(t *testing.T) {
	h := NewHub()
	a := h.MustAttach("a")
	b := h.MustAttach("b")
	defer a.Close()
	b.Close()
	if err := a.Send("b", []byte("x")); err == nil {
		t.Error("send to closed peer should fail")
	}
}

func TestHubBufferCopied(t *testing.T) {
	h := NewHub()
	a := h.MustAttach("a")
	b := h.MustAttach("b")
	defer a.Close()
	defer b.Close()
	var mu sync.Mutex
	var got string
	b.SetHandler(func(_ string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = string(data)
	})
	buf := []byte("orig")
	a.Send("b", buf)
	copy(buf, "XXXX") // mutate after send
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got != ""
	}, "delivery")
	mu.Lock()
	defer mu.Unlock()
	if got != "orig" {
		t.Errorf("got %q, want orig (buffer should be copied)", got)
	}
}

func TestHubPeers(t *testing.T) {
	h := NewHub()
	a := h.MustAttach("a")
	b := h.MustAttach("b")
	defer a.Close()
	defer b.Close()
	peers := h.Peers()
	if len(peers) != 2 {
		t.Errorf("Peers = %v", peers)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var got []string
	b.SetHandler(func(from string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, from+":"+string(data))
	})
	// b replies to a on the connection a dialed.
	var amu sync.Mutex
	var areply string
	a.SetHandler(func(from string, data []byte) {
		amu.Lock()
		defer amu.Unlock()
		areply = from + ":" + string(data)
	})

	if err := a.Send("b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	}, "tcp delivery")
	if err := b.Send("a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		amu.Lock()
		defer amu.Unlock()
		return areply != ""
	}, "tcp reply")
	amu.Lock()
	defer amu.Unlock()
	if areply != "b:pong" {
		t.Errorf("reply = %q", areply)
	}
	onePair(t, a, b)
}

// onePair checks that a round trip between dialer and acceptor left one
// connection between them: the one dialer opened.
func onePair(t *testing.T, dialer, acceptor *TCPEndpoint) {
	t.Helper()
	for _, c := range []struct {
		e      *TCPEndpoint
		dialed int
	}{{dialer, 1}, {acceptor, 0}} {
		c.e.mu.Lock()
		open, dialed := len(c.e.open), 0
		for tc := range c.e.open {
			if tc.dialed {
				dialed++
			}
		}
		c.e.mu.Unlock()
		if open != 1 || dialed != c.dialed {
			t.Errorf("%s holds %d open conns (%d dialed), want 1 (%d)", c.e.ID(), open, dialed, c.dialed)
		}
	}
}

// listen opens a TCP endpoint on an ephemeral loopback port, closed when the
// test ends.
func listen(t *testing.T, id string, book *AddressBook) *TCPEndpoint {
	t.Helper()
	e, err := ListenTCP(id, "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// collect installs a handler on e that queues every frame as "from:data". The
// queue holds more than the 500 frames a test sends one way before reading,
// so the handler never blocks the reader.
func collect(e *TCPEndpoint) chan string {
	got := make(chan string, 1024)
	e.SetHandler(func(from string, data []byte) { got <- from + ":" + string(data) })
	return got
}

func expect(t *testing.T, got chan string, want string) {
	t.Helper()
	select {
	case msg := <-got:
		if msg != want {
			t.Fatalf("received %q, want %q", msg, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("timeout waiting for %q", want)
	}
}

// TestTCPReplyNeedsNoAddress: b has no address for a, so it cannot reach a
// until a has dialed in; from a's first frame on, b answers on a's
// connection. Neither side opens a second one, and b never dials.
func TestTCPReplyNeedsNoAddress(t *testing.T) {
	bookA, bookB := NewAddressBook(), NewAddressBook()
	a, b := listen(t, "a", bookA), listen(t, "b", bookB)
	bookA.Set("b", b.Addr())
	gotA, gotB := collect(a), collect(b)
	if err := b.Send("a", []byte("early")); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("Send before a has dialed = %v, want ErrUnknownPeer", err)
	}
	if err := a.Send("b", []byte("ping")); err != nil {
		t.Fatal(err)
	}
	expect(t, gotB, "a:ping")
	if err := b.Send("a", []byte("pong")); err != nil {
		t.Fatal(err)
	}
	expect(t, gotA, "b:pong")
	onePair(t, a, b)
}

// TestTCPSimultaneousDial: two cold endpoints stream to each other at once,
// so each may dial while the other's conn is arriving. Every frame must
// arrive, in order per direction.
func TestTCPSimultaneousDial(t *testing.T) {
	book := NewAddressBook()
	a, b := listen(t, "a", book), listen(t, "b", book)
	gotA, gotB := collect(a), collect(b)
	const n = 500
	var wg sync.WaitGroup
	for _, e := range []struct {
		from *TCPEndpoint
		to   string
	}{{a, "b"}, {b, "a"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := e.from.Send(e.to, []byte(fmt.Sprintf("m%04d", i))); err != nil {
					t.Errorf("%s to %s, frame %d: %v", e.from.ID(), e.to, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		expect(t, gotB, fmt.Sprintf("a:m%04d", i))
		expect(t, gotA, fmt.Sprintf("b:m%04d", i))
	}
}

// TestTCPRestartedDialerTakesOver: a client that dials the host is replaced
// by a new endpoint under the same id on a new port. The host has no address
// for it, yet its next Send reaches the new endpoint, from the new conn's
// first frame on: in odd rounds the old endpoint is still open then, so the
// host cannot be relying on having read the old conn's EOF.
func TestTCPRestartedDialerTakesOver(t *testing.T) {
	host := listen(t, "host", NewAddressBook())
	fromClient := collect(host)
	dialClient := func() (*TCPEndpoint, chan string) {
		book := NewAddressBook()
		book.Set("host", host.Addr())
		c := listen(t, "c", book)
		return c, collect(c)
	}
	old, _ := dialClient()
	if err := old.Send("host", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	expect(t, fromClient, "c:hello")
	for round := 0; round < 20; round++ {
		if round%2 == 0 {
			old.Close()
		}
		cur, toClient := dialClient()
		join := fmt.Sprintf("join-%d", round)
		if err := cur.Send("host", []byte(join)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		expect(t, fromClient, "c:"+join)
		ack := fmt.Sprintf("ack-%d", round)
		if err := host.Send("c", []byte(ack)); err != nil {
			t.Fatalf("round %d: host Send: %v", round, err)
		}
		expect(t, toClient, "host:"+ack)
		old.Close()
		old = cur
	}
}

// TestListenTCPRejectsLongID: a frame carries its sender id behind a 16-bit
// length, so an id that does not fit is refused up front rather than sent as
// frames every peer would misparse.
func TestListenTCPRejectsLongID(t *testing.T) {
	book := NewAddressBook()
	long := strings.Repeat("x", 1<<16)
	if e, err := ListenTCP(long, "127.0.0.1:0", book); err == nil {
		e.Close()
		t.Fatalf("ListenTCP accepted a %d-byte id", len(long))
	}
	if _, ok := book.Lookup(long); ok {
		t.Error("a refused id was registered in the book")
	}
	e := listen(t, long[1:], book)
	got := collect(e)
	if err := e.Send(long[1:], []byte("self")); err != nil {
		t.Fatal(err)
	}
	expect(t, got, long[1:]+":self")
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 500
	var mu sync.Mutex
	var got []string
	b.SetHandler(func(_ string, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, string(data))
	})
	for i := 0; i < n; i++ {
		if err := a.Send("b", []byte(fmt.Sprintf("m%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	}, "all tcp messages")
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if got[i] != fmt.Sprintf("m%04d", i) {
			t.Fatalf("order violated at %d: %q", i, got[i])
		}
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("nobody", []byte("x")); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Send = %v", err)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListenTCP("b", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Close()
	if err := a.Send("b", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v", err)
	}
}

func TestAddressBook(t *testing.T) {
	book := NewAddressBook()
	if _, ok := book.Lookup("x"); ok {
		t.Error("empty book should miss")
	}
	book.Set("x", "1.2.3.4:5")
	addr, ok := book.Lookup("x")
	if !ok || addr != "1.2.3.4:5" {
		t.Errorf("Lookup = %q %v", addr, ok)
	}
}

func BenchmarkHubSend(b *testing.B) {
	h := NewHub()
	src := h.MustAttach("src")
	dst := h.MustAttach("dst")
	defer src.Close()
	defer dst.Close()
	done := make(chan struct{})
	count := 0
	dst.SetHandler(func(string, []byte) {
		count++
		if count == b.N {
			close(done)
		}
	})
	payload := []byte("0123456789abcdef")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Send("dst", payload); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

func TestEndpointIdentity(t *testing.T) {
	h := NewHub()
	m := h.MustAttach("mem-id")
	defer m.Close()
	if m.ID() != "mem-id" {
		t.Errorf("mem ID = %q", m.ID())
	}
	book := NewAddressBook()
	tcp, err := ListenTCP("tcp-id", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	if tcp.ID() != "tcp-id" {
		t.Errorf("tcp ID = %q", tcp.ID())
	}
	if tcp.Addr() == "" {
		t.Error("empty Addr")
	}
	if addr, ok := book.Lookup("tcp-id"); !ok || addr != tcp.Addr() {
		t.Error("listen address not registered")
	}
}

func TestTCPDialFailure(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Register an address nobody listens on.
	book.Set("dead", "127.0.0.1:1")
	if err := a.Send("dead", []byte("x")); err == nil {
		t.Error("dial to dead address should fail")
	}
}

func TestTCPSendRacingCloseLeaksNothing(t *testing.T) {
	// Send drops e.mu while dialing, so Close can slip into that window and
	// drain e.conns first. A Send that then cached its fresh socket would
	// leak it forever (nothing ever closes entries added after the drain).
	// The window is a few microseconds wide, so race Send against Close
	// repeatedly and check the invariant after every round: a closed
	// endpoint holds no cached connections.
	book := NewAddressBook()
	b, err := ListenTCP("b", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 50; i++ {
		a, err := ListenTCP(fmt.Sprintf("a%d", i), "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		sent := make(chan error, 1)
		go func() {
			<-start
			sent <- a.Send("b", []byte("x"))
		}()
		close(start)
		a.Close()
		if err := <-sent; err != nil && !errors.Is(err, ErrClosed) {
			// Losing the race to Close is fine; any other failure is not.
			t.Fatalf("round %d: Send = %v", i, err)
		}
		a.mu.Lock()
		cached := len(a.conns)
		a.mu.Unlock()
		if cached != 0 {
			t.Fatalf("round %d: %d connection(s) cached on a closed endpoint", i, cached)
		}
	}
}

// TestTCPSendAfterPeerRestart restarts b under a's cached connection, many
// times over. A write into a socket whose peer has sent FIN is accepted by
// the kernel, so without a's watcher on the dialed conn the first Send after
// a restart returns nil and the frame vanishes.
//
// Even rounds pin the guarantee: once a has seen b hang up, the very next
// Send dials b's new listener and the frame arrives — one call, no retry.
// Odd rounds send at once, racing the watcher. TCP acknowledges nothing, so
// a frame written before the FIN was seen may still be lost in flight; what
// must hold is that Send keeps working (each call a clean nil or error) and
// a resend gets through.
func TestTCPSendAfterPeerRestart(t *testing.T) {
	book := NewAddressBook()
	a, err := ListenTCP("a", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("b", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { b.Close() }()
	got := make(chan string, 256) // odd rounds resend every 5ms for up to 5s
	handler := func(from string, data []byte) { got <- string(data) }
	b.SetHandler(handler)
	// arrived waits for want, skipping resends left over from earlier rounds.
	arrived := func(want string, within time.Duration) bool {
		timeout := time.After(within)
		for {
			select {
			case msg := <-got:
				if msg == want {
					return true
				}
			case <-timeout:
				return false
			}
		}
	}
	for round := 0; round < 20; round++ {
		pre, post := fmt.Sprintf("pre-%d", round), fmt.Sprintf("post-%d", round)
		if err := a.Send("b", []byte(pre)); err != nil {
			t.Fatalf("round %d: send before restart: %v", round, err)
		}
		if !arrived(pre, 5*time.Second) {
			t.Fatalf("round %d: message before restart never arrived", round)
		}
		addr := b.Addr()
		b.Close()
		if b, err = ListenTCP("b", addr, book); err != nil {
			t.Fatalf("round %d: rebind %s: %v", round, addr, err)
		}
		b.SetHandler(handler)
		if round%2 == 0 {
			waitFor(t, func() bool {
				a.mu.Lock()
				defer a.mu.Unlock()
				return a.conns["b"] == nil
			}, "a to see b's close and evict the cached conn")
			if err := a.Send("b", []byte(post)); err != nil {
				t.Fatalf("round %d: send after a saw the restart: %v", round, err)
			}
			if !arrived(post, 5*time.Second) {
				t.Fatalf("round %d: Send returned nil after a saw the restart, but the message never arrived", round)
			}
			continue
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			_ = a.Send("b", []byte(post)) // nil or error; a lost frame is resent below
			if arrived(post, 5*time.Millisecond) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no resend got through after restart", round)
			}
		}
	}
}
