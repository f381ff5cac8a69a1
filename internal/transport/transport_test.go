package transport

import (
	"errors"
	"fmt"
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
	// b replies to a over its own outbound connection.
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
