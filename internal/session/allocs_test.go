package session

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chunklog"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/ot"
)

// TestClientReceivePushAllocs pins the push hot path: once the outbox's
// backing array has been recycled, handing a client a one-item push
// allocates nothing — the item is queued inline, not in a closure.
func TestClientReceivePushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	sim := netsim.New(1, netsim.LANLink)
	c := NewClientForDoc(fabric.FromSim(sim.MustAddNode("u0")), "host", "doc")
	var got int
	c.OnItem = func(Item) { got++ }
	push := &MsgItems{Doc: "doc", Items: []Item{{From: "u1", Kind: "eng/op", Body: "|AQID"}}}
	receive := func() {
		push.Items[0].Seq++
		c.Receive("host", push)
	}
	receive() // warm the queue
	if n := testing.AllocsPerRun(100, receive); n != 0 {
		t.Errorf("Client.Receive of a one-item push allocates %v objects, want 0", n)
	}
	if got != 102 { // the warm-up, AllocsPerRun's own warm-up, then 100 runs
		t.Errorf("OnItem ran %d times, want 102", got)
	}
}

// nullEndpoint swallows sends: what is left is the session layer's own work.
type nullEndpoint struct{}

func (nullEndpoint) ID() string                  { return "host" }
func (nullEndpoint) Send(string, any, int) error { return nil }
func (nullEndpoint) SetHandler(fabric.Handler)   {}
func (nullEndpoint) Close() error                { return nil }

// TestHostReceivePostAllocs pins Host.Receive of a post with four members
// joined (three pushes) over an endpoint that does nothing: the in-module
// twin of cscwload's session.post_allocs. The three pushes share one
// MsgItems, whose item slice is the log itself, and that is all: each push
// and the OnItem call are queued inline on the outbox, whose array is
// recycled, and the member list is sorted at join, not per post. The log's
// first chunk doubling, and then a new chunk every 256 items, round away in
// the per-run average. Under the daemon's OT shape an OnItem that PostLocals
// a commit adds one more: the submitter's own push of the commit, while the
// other three get the submission and the commit in the message they share.
func TestHostReceivePostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var h *Host
	for _, tc := range []struct {
		name   string
		onItem func(string, Item)
		want   float64
		items  int // logged per post
	}{
		{"no OnItem", nil, 1, 1},
		{"OnItem", func(string, Item) {}, 1, 1}, // the relay daemon's shape
		{"OnItem posts a commit", func(doc string, it Item) { // the OT daemon's
			if it.From != HostAuthor {
				h.Host(doc).PostLocal("eng/op", "|commit")
			}
		}, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h = NewHost(nullEndpoint{}, Synchronous, func() time.Duration { return 0 })
			h.OnItem = tc.onItem
			for _, name := range []string{"p0", "p1", "p2", "p3"} {
				h.Receive(name, &MsgJoin{From: name, State: Active})
			}
			post := &MsgPost{From: "p0", Kind: "eng/op", Body: "|" + strings.Repeat("QUJD", 20)}
			if n := testing.AllocsPerRun(200, func() { h.Receive("p0", post) }); n != tc.want {
				t.Errorf("Host.Receive of a four-member post allocates %v objects, want %v", n, tc.want)
			}
			if got := h.Host("").LogLen(); got != 201*tc.items { // AllocsPerRun's warm-up, then 200 runs
				t.Errorf("log holds %d items, want %d", got, 201*tc.items)
			}
		})
	}
}

// TestLogBytesFlat: a log that lives as long as its session costs the same
// per entry however long it has grown. Host.Receive of a four-member post
// and ot.Server.Submit of an edit each allocate no more bytes per call over
// 100 000 calls than over 1 000. A log grown by append copies its history at
// every growth, by a quarter at a time past a few hundred entries, so its
// bytes per call rise with its length: about 194 B per post at 1 000 posts
// and 393 B at 100 000.
func TestLogBytesFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) func() // a fresh log and one call that appends to it
	}{
		{"Host.Receive", func(*testing.T) func() {
			h := NewHost(nullEndpoint{}, Synchronous, func() time.Duration { return 0 })
			h.OnItem = func(string, Item) {}
			for _, name := range []string{"p0", "p1", "p2", "p3"} {
				h.Receive(name, &MsgJoin{From: name, State: Active})
			}
			post := &MsgPost{From: "p0", Kind: "eng/op", Body: "|" + strings.Repeat("QUJD", 20)}
			return func() { h.Receive("p0", post) }
		}},
		{"ot.Server.Submit", func(t *testing.T) func() {
			s := ot.NewServer("")
			var seq uint64
			return func() { // an insert, then its delete: the document stays small
				op := ot.Op{Kind: ot.Insert, Ch: 'x'}
				if seq%2 == 1 {
					op = ot.Op{Kind: ot.Delete}
				}
				seq++
				if _, err := s.Submit(op, s.Rev(), "p0", seq); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"engine.Server.Integrate", func(t *testing.T) func() {
			s, codec := engine.NewServer(HostAuthor), engine.NewWireCodec()
			var body, answer []byte
			var seq uint64
			return func() { // an insert, then its delete, each at the current revision
				sub := ot.Submission{Op: ot.Op{Kind: ot.Insert, Ch: 'x'}, Base: int(seq), Seq: seq + 1}
				if seq%2 == 1 {
					sub.Op = ot.Op{Kind: ot.Delete}
				}
				seq++
				var err error
				if body, err = engine.AppendItemBody(body[:0], codec, engine.Msg{To: HostAuthor, Body: engine.MsgSubmit{Sub: sub}}); err != nil {
					t.Fatal(err)
				}
				if answer, err = s.Integrate("p0", string(body), answer[:0]); err != nil || len(answer) == 0 {
					t.Fatalf("submission %d: answer %x, %v", seq, answer, err)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			small, large := bytesPerCall(tc.start(t), 1000), bytesPerCall(tc.start(t), 100_000)
			t.Logf("%.0f B per call over 1 000 calls, %.0f B over 100 000", small, large)
			if large > small {
				t.Errorf("%.0f B per call over 100 000 calls, more than the %.0f B over 1 000", large, small)
			}
		})
	}
}

// bytesPerCall runs call n times and returns the bytes allocated per call.
func bytesPerCall(call func(), n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		call()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestServeJoinAckBytes pins what Host.Receive allocates to serve a rejoin
// over an endpoint that does nothing: the join ack (80 B), the presence it
// fans out to the two writers (48 B), and the ack's segments, a slice (24 B)
// holding one slice header (24 B) for each chunk of the log the backlog
// touches. That is 200 B for a backlog in two chunks and 232 B for one in
// three (an 80 B size class), whatever the backlog's length: the backlog is
// read out of the log in place. When the host copied the backlog, a
// 400-item ack cost 27 392 B.
func TestServeJoinAckBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	h := NewHost(nullEndpoint{}, Synchronous, func() time.Duration { return 0 })
	joinAll(h, "w0", "w1", "roamer")
	h.Receive("roamer", &MsgLeave{From: "roamer"})
	const logged = 4 * chunklog.Size
	for i := range logged {
		w := []string{"w0", "w1"}[i%2]
		h.Receive(w, &MsgPost{From: w, Kind: "eng/op", Body: "|AQID"})
	}
	for _, tc := range []struct {
		since uint64 // the backlog is (since, logged]
		want  uint64
	}{
		{logged - 400, 200},             // 400 items, two chunks
		{logged - 2*chunklog.Size, 200}, // 512 items, two chunks
		{logged - 300, 200},             // 300 items, two chunks
		{logged - 600, 232},             // 600 items, three chunks
		{logged - 700, 232},             // 700 items, three chunks
	} {
		join := &MsgJoin{From: "roamer", Since: tc.since, State: Active}
		leave := &MsgLeave{From: "roamer"}
		h.Receive("roamer", join) // warm the outbox's array
		h.Receive("roamer", leave)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.Receive("roamer", join)
		runtime.ReadMemStats(&after)
		h.Receive("roamer", leave)
		if got := after.TotalAlloc - before.TotalAlloc; got != tc.want {
			t.Errorf("serving a join ack of %d items allocates %d B, want %d", logged-tc.since, got, tc.want)
		}
	}
}
