package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// TestDialTCPOnlyDials: a dial-only endpoint has no address and registers
// none, yet it reaches a listener whose book lacks it and is answered on the
// connection it dialed; when that peer restarts on the same address, the
// next Send after the old connection ended redials it.
func TestDialTCPOnlyDials(t *testing.T) {
	hostBook := NewAddressBook()
	host := listen(t, "host", hostBook)
	book := NewAddressBook()
	book.Set("host", host.Addr())
	c, err := DialTCP("c", book)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if addr := c.Addr(); addr != "" {
		t.Fatalf("dial-only Addr = %q, want \"\"", addr)
	}
	if _, ok := book.Lookup("c"); ok {
		t.Error("a dial-only endpoint registered an address")
	}
	fromC, toC := collect(host), collect(c)
	if err := c.Send("host", []byte("join")); err != nil {
		t.Fatal(err)
	}
	expect(t, fromC, "c:join")
	if err := host.Send("c", []byte("ack")); err != nil {
		t.Fatal(err)
	}
	expect(t, toC, "host:ack")
	onePair(t, c, host)

	addr := host.Addr()
	host.Close()
	if host, err = ListenTCP("host", addr, hostBook); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { host.Close() })
	fromC = collect(host)
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.conns["host"] == nil
	}, "c to see the host's close and evict its conn")
	if err := c.Send("host", []byte("rejoin")); err != nil {
		t.Fatalf("Send after the host restarted: %v", err)
	}
	expect(t, fromC, "c:rejoin")
	if err := host.Send("c", []byte("ack")); err != nil {
		t.Fatal(err)
	}
	expect(t, toC, "host:ack")
	onePair(t, c, host)
}

// TestTCPOversizedSendKeepsConn: a frame past maxFrame is refused before
// anything is written, so it must not cost the connection. b has no address
// for a and answers on the socket a dialed, as the daemon answers a
// participant: had the refusal closed that socket, b could not reach a again.
func TestTCPOversizedSendKeepsConn(t *testing.T) {
	bookA := NewAddressBook()
	a, b := listen(t, "a", bookA), listen(t, "b", NewAddressBook())
	bookA.Set("b", b.Addr())
	gotA, gotB := collect(a), collect(b)
	if err := a.Send("b", []byte("join")); err != nil {
		t.Fatal(err)
	}
	expect(t, gotB, "a:join")
	b.mu.Lock()
	route := b.conns["a"]
	b.mu.Unlock()
	if err := b.Send("a", make([]byte, maxFrame)); err == nil {
		t.Fatal("a frame past maxFrame was sent")
	}
	if err := b.Send("a", []byte("ack")); err != nil {
		t.Fatalf("Send after an oversized frame: %v", err)
	}
	expect(t, gotA, "b:ack")
	b.mu.Lock()
	same := b.conns["a"] == route
	b.mu.Unlock()
	if !same {
		t.Error("the oversized frame replaced b's route to a")
	}
	onePair(t, a, b)
}

// TestTCPWriteBufferKeepsAtMostCap: a frame past FrameBufCap is built in a
// one-off buffer, so the connection keeps at most FrameBufCap bytes for
// writing, and the frames around the big one still arrive intact.
func TestTCPWriteBufferKeepsAtMostCap(t *testing.T) {
	book := NewAddressBook()
	a, b := listen(t, "a", book), listen(t, "b", book)
	gotB := collect(b)
	big := strings.Repeat("x", 100<<10)
	for _, msg := range []string{"hi", big, "bye"} {
		if err := a.Send("b", []byte(msg)); err != nil {
			t.Fatal(err)
		}
		expect(t, gotB, "a:"+msg)
		a.mu.Lock()
		tc := a.conns["b"]
		a.mu.Unlock()
		tc.mu.Lock()
		kept := cap(tc.wbuf)
		tc.mu.Unlock()
		if kept > FrameBufCap {
			t.Fatalf("the conn keeps a %d-byte write buffer, cap is %d", kept, FrameBufCap)
		}
	}
}

// TestTCPSendAllocs pins the send path: once the connection's write buffer
// has grown to the frame size, a Send over a live loopback route allocates
// nothing, and neither does the peer's reader taking the frame in.
func TestTCPSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	book := NewAddressBook()
	a, b := listen(t, "a", book), listen(t, "b", book)
	var got atomic.Int64
	b.SetHandler(func(string, []byte) { got.Add(1) })
	payload := []byte("a keystroke's frame")
	send := func() {
		if err := a.Send("b", payload); err != nil {
			t.Fatal(err)
		}
	}
	send() // dial and grow the write buffer
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("TCPEndpoint.Send allocates %v objects, want 0", n)
	}
	waitFor(t, func() bool { return got.Load() == 102 }, "every frame") // the warm-up, AllocsPerRun's own, then 100
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
	// One buffer for every frame: Send keeps nothing of data, so rewriting
	// it for the next frame must not change one already sent.
	var buf []byte
	for i := 0; i < n; i++ {
		buf = fmt.Appendf(buf[:0], "m%04d", i)
		if err := a.Send("b", buf); err != nil {
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
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
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

func TestEndpointIdentity(t *testing.T) {
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

// TestTCPSendRacingCloseLeaksNothing puts a Send in the window where route
// has passed its closed check and dropped e.mu to look the peer up and dial.
// A Close in that window drains the routes and open conns before the dial
// finishes; a Send that then kept its fresh socket would leak it and its
// reader, which nothing closes any more. Holding the book's lock parks the
// Send at its lookup, so the window is opened on purpose, not by chance.
func TestTCPSendRacingCloseLeaksNothing(t *testing.T) {
	book := NewAddressBook()
	listen(t, "b", book)
	a, err := DialTCP("a", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	book.mu.Lock()
	var unlock sync.Once
	defer unlock.Do(book.mu.Unlock)
	sent := make(chan error, 1)
	go func() { sent <- a.Send("b", []byte("x")) }()
	waitFor(t, func() bool { return parked("(*AddressBook).Lookup") }, "Send to park at its address lookup")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	unlock.Do(book.mu.Unlock)

	select {
	case err := <-sent:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Send across Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Send did not return within 5s of the book being released")
	}
	a.mu.Lock()
	routes, open := len(a.conns), len(a.open)
	a.mu.Unlock()
	if routes != 0 || open != 0 {
		t.Errorf("closed endpoint holds %d route(s) and %d open conn(s), want none", routes, open)
	}
}

// TestTCPCloseJoinsReaders: Close returns only once every connection's
// reader has exited, so no handler runs on a closed endpoint. A reader's
// handler blocks on its first frame; Close must park waiting for it, and
// return within 5 s of the handler returning, which needs the reader to
// hear its connection close. Close runs on its own goroutine under the
// test's deadlines, so a reader that never exits fails the test instead of
// hanging it. The endpoint under test only dials, so its WaitGroup counts
// that one reader and nothing else.
func TestTCPCloseJoinsReaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	book := NewAddressBook()
	book.Set("a", ln.Addr().String())
	b, err := DialTCP("b", book)
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var free sync.Once
	defer free.Do(func() { close(release) })
	b.SetHandler(func(string, []byte) {
		close(entered)
		<-release
	})
	if err := b.Send("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The peer closes its end at b's EOF, as an endpoint's reader does, so
	// b's Close need not wait out its read deadline.
	go func() {
		io.Copy(io.Discard, c)
		c.Close()
	}()
	frame := make([]byte, 6+len("a")+len("x"))
	putFrame(frame, "a", []byte("x"))
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler did not run within 5s")
	}

	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	waitFor(t, func() bool {
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) while a reader's handler was still running", err)
		default:
		}
		return parked("(*TCPEndpoint).Close", "(*WaitGroup).Wait", "runtime_Semacquire")
	}, "Close to wait for the reader")
	free.Do(func() { close(release) })
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s of the handler returning: the reader did not stop when its connection closed")
	}
}

// parked reports whether some goroutine's stack shows every one of frames.
func parked(frames ...string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		all := true
		for _, f := range frames {
			all = all && strings.Contains(g, f)
		}
		if all {
			return true
		}
	}
	return false
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

// TestTCPTruncatedFrameDropsConn: a peer that declares a frame and closes
// before its last byte delivers nothing, and its connection is dropped.
func TestTCPTruncatedFrameDropsConn(t *testing.T) {
	ep, err := ListenTCP("host", "127.0.0.1:0", NewAddressBook())
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.SetHandler(func(from string, data []byte) { t.Errorf("delivered %q from %s", data, from) })
	c, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	openConns := func() int {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return len(ep.open)
	}
	waitFor(t, func() bool { return openConns() == 1 }, "the conn to be accepted")
	if _, err := c.Write([]byte{0, 0, 0, 10, 0, 1, 'x'}); err != nil { // 10 bytes declared, 3 sent
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, func() bool { return openConns() == 0 }, "the truncated conn to be dropped")
}
