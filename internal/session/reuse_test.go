package session

// A MsgPost is fabric.Scoped: over a byte transport it decodes into storage
// FromTransport takes back once the host's handler has returned, so the
// host must copy what it logs inside the call, and the storage must stay
// bounded by the decodes in flight.

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/transport"
)

// syncTransport is a transport.Endpoint in process: Send writes nothing and
// keeps nothing, and a test delivers a frame by calling the handler
// FromTransport installed, so a delivery is over when the call returns.
type syncTransport struct{ handler transport.Handler }

func (s *syncTransport) ID() string                     { return "host" }
func (s *syncTransport) Send(string, []byte) error      { return nil }
func (s *syncTransport) SetHandler(h transport.Handler) { s.handler = h }
func (s *syncTransport) Close() error                   { return nil }

// TestPostOverTransportAllocs pins a post's whole receive path at the
// daemon: a post frame delivered through FromTransport to a four-member
// host. The post decodes into storage the adapter took back from the one
// before, so what is left is the frame body's one string and the push the
// three other members share (TestHostReceivePostAllocs's one); the push's
// frames are encoded into recycled storage.
func TestPostOverTransportAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	tr := &syncTransport{}
	codec := NewWireCodec()
	h := NewHost(fabric.FromTransport(tr, codec), Synchronous, func() time.Duration { return 0 })
	frameOf := func(m any) []byte {
		frame, err := codec.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Clone(frame)
	}
	for _, name := range []string{"p0", "p1", "p2", "p3"} {
		tr.handler(name, frameOf(&MsgJoin{From: name, State: Active}))
	}
	sent := MsgPost{From: "p0", Kind: "eng/op", Body: "|" + strings.Repeat("QUJD", 20)}
	frame := frameOf(&sent)
	if n := testing.AllocsPerRun(200, func() { tr.handler("p0", frame) }); n != 2 {
		t.Errorf("a four-member post through FromTransport allocates %v objects, want 2", n)
	}
	d := h.Host("")
	if got := d.LogLen(); got != 201 { // AllocsPerRun's warm-up, then 200 runs
		t.Fatalf("log holds %d items, want 201", got)
	}
	if it := d.log.At(200); it.From != sent.From || it.Kind != sent.Kind || it.Body != sent.Body {
		t.Errorf("the last post was logged as %+v, want %+v", it, sent)
	}
}

// postOf is the i-th post writer id sends in the tests below: kinds and
// body lengths vary, so a post read from storage another decode had filled
// would show.
func postOf(id string, i int) (kind, body string) {
	return fmt.Sprintf("k%d", i%3), fmt.Sprintf("%s-%d-%s", id, i, strings.Repeat("x", i%17))
}

// checkLog requires the document's log to hold exactly n items, each
// author's in the order postOf numbers them.
func checkLog(t *testing.T, d *docHost, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); d.LogLen() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the log holds %d items after 5 s, want %d", d.LogLen(), n)
		}
	}
	d.mu.Lock()
	items := d.log.Copy(0, d.log.Len())
	d.mu.Unlock()
	if len(items) != n {
		t.Fatalf("the log holds %d items, want %d", len(items), n)
	}
	next := make(map[string]int)
	for _, it := range items {
		kind, body := postOf(it.From, next[it.From])
		if it.Kind != kind || it.Body != body {
			t.Fatalf("item %d is %+v, want %s's post %d (%s %q)", it.Seq, it, it.From, next[it.From], kind, body)
		}
		next[it.From]++
	}
}

// TestConcurrentPostsOverTCP: four participants, each on its own TCP
// connection, post at once into one host, so four readers decode posts
// into the one free list at once. A post handed back before the host had
// logged it, or handed to two decodes, would log a wrong or missing item
// (and under -race, a data race). The log must hold exactly what each one
// sent, in the order it sent it.
func TestConcurrentPostsOverTCP(t *testing.T) {
	const writers, perWriter = 4, 200
	book := transport.NewAddressBook()
	h := NewHost(tcpEndpoint(t, "host", book), Synchronous, func() time.Duration { return 0 })
	clients := make([]*Client, writers)
	for i := range clients {
		c := NewClientForDoc(tcpEndpoint(t, fmt.Sprintf("w%d", i), book), "host", "doc")
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
		clients[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				kind, body := postOf(c.ID(), i)
				if err := c.Post(kind, body, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkLog(t, h.Host("doc"), writers*perWriter)
}

// sizeOf reads the size of the unexported field name of the struct *v
// points to: a map's length, a slice's capacity or an int's value. The soak
// below reads other packages' state through it, once nothing is running.
func sizeOf(v any, name string) int {
	f := reflect.ValueOf(v).Elem().FieldByName(name)
	switch f.Kind() {
	case reflect.Slice:
		return f.Cap()
	case reflect.Map:
		return f.Len()
	}
	return int(f.Int())
}

// outboxSize is the larger capacity of an outbox's two arrays, the queue
// and the spare kept for the next drain.
func outboxSize(o *fabric.Outbox) int { return max(sizeOf(o, "queue"), sizeOf(o, "spare")) }

// TestChurnSoak is TestOrderingSoak's (internal/group) twin for the session
// post path on real sockets. Four participants post 6 000 items into one
// host while they churn: in each of 30 rounds each dials a new connection,
// joins from the last item it saw, posts 50 items, and then leaves or just
// hangs up. Rounds are run one after another, so at most a round's posts
// are in flight at once, and what the post path keeps between messages
// must stay bounded by that, not by how many posts or dials the run has
// made:
//   - the host's route table (its routes and open connections) empties once
//     every participant has hung up;
//   - the document outbox's arrays hold at most outboxBound effects: room
//     for the few effects of every post of one round, and for append's
//     doubling, where a leak per post would pass 6 000;
//   - each client outbox's hold at most clientBound: a client queues one
//     delivery per frame, however long a rejoin's backlog is, where one per
//     item would reach a round's posts;
//   - the MsgPost free list holds at most one post per reader that decoded
//     at once, here 2 per participant (a redial's reader and its
//     predecessor's).
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("6 000 posts over 120 connections")
	}
	if raceEnabled {
		t.Skip("the sizes are read without the locks that guard them")
	}
	const parts, rounds, perRound = 4, 30, 50
	const outboxBound, clientBound = 4 * parts * perRound, 16
	book := transport.NewAddressBook()
	tep, err := transport.ListenTCP("host", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	ep := fabric.FromTransport(tep, NewWireCodec())
	t.Cleanup(func() { ep.Close() })
	h := NewHost(ep, Synchronous, func() time.Duration { return 0 })
	since := make([]uint64, parts)     // the last item each participant saw
	clientOutbox := make([]int, parts) // the largest outbox array of each participant's clients
	// round is participant p's round r, from dial to hang-up.
	round := func(p, r int) error {
		id := fmt.Sprintf("p%d", p)
		ctep, err := transport.DialTCP(id, book)
		if err != nil {
			return err
		}
		cep := fabric.FromTransport(ctep, NewWireCodec())
		defer cep.Close()
		c := NewClientForDoc(cep, "host", "")
		c.lastSeq = since[p]
		joined := make(chan struct{})
		c.OnJoined = func(Mode, []string) { close(joined) }
		c.OnItem = func(Item) {}
		if err := c.Join(0); err != nil {
			return err
		}
		select {
		case <-joined:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("%s's join in round %d timed out", id, r)
		}
		for i := range perRound {
			kind, body := postOf(id, r*perRound+i)
			if err := c.Post(kind, body, 0); err != nil {
				return err
			}
		}
		if r%2 == 0 {
			if err := c.Leave(0); err != nil {
				return err
			}
		}
		since[p] = c.LastSeq()
		c.mu.Lock()
		clientOutbox[p] = max(clientOutbox[p], outboxSize(c.out))
		c.mu.Unlock()
		return nil
	}
	for r := range rounds {
		var wg sync.WaitGroup
		for p := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := round(p, r); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	d := h.Host("")
	checkLog(t, d, parts*rounds*perRound)
	for deadline := time.Now().Add(5 * time.Second); sizeOf(tep, "open")+sizeOf(tep, "conns") > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after %d dials, all hung up, the host keeps %d routes and %d open connections",
				parts*rounds, sizeOf(tep, "conns"), sizeOf(tep, "open"))
		}
	}
	d.mu.Lock()
	hostOutbox := outboxSize(d.out)
	d.mu.Unlock()
	if hostOutbox > outboxBound {
		t.Errorf("the document outbox keeps a %d-effect array, want at most %d", hostOutbox, outboxBound)
	}
	for p, n := range clientOutbox {
		if n > clientBound {
			t.Errorf("a client of p%d kept a %d-effect outbox array, want at most %d", p, n, clientBound)
		}
	}
	if n := sizeOf(&postFree, "n"); n > 2*parts {
		t.Errorf("the MsgPost free list holds %d posts, want at most %d", n, 2*parts)
	}
	t.Logf("document outbox %d, client outboxes %v, free posts %d", hostOutbox, clientOutbox, sizeOf(&postFree, "n"))
}
