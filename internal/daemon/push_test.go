package daemon

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
	"repro/internal/transport"
)

// pushCounter is a daemon Middleware that counts the items frames the
// daemon sends, per participant.
type pushCounter struct {
	mu     sync.Mutex
	frames map[string]int
}

func (c *pushCounter) tap() fabric.Middleware {
	return fabric.Tap(func(to string, payload any, _ int) {
		if _, ok := payload.(*session.MsgItems); ok {
			c.mu.Lock()
			c.frames[to]++
			c.mu.Unlock()
		}
	}, nil)
}

// reset zeroes the counts and returns the ones it dropped.
func (c *pushCounter) reset() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	frames := c.frames
	c.frames = map[string]int{}
	return frames
}

// editors starts a daemon running eng with the counter on its edge and
// joins four participants running eng to one document.
func editors(tb testing.TB, eng string, pushes *pushCounter) []*peer {
	cfg := hostConfig(eng)
	cfg.Middleware = []fabric.Middleware{pushes.tap()}
	d := startDaemon(tb, cfg)
	peers := make([]*peer, 4)
	for i := range peers {
		peers[i] = dial(tb, d, fmt.Sprintf("p%d", i), "doc", Config{Engine: eng})
		peers[i].join()
	}
	pushes.reset()
	return peers
}

// edit has participant n%4 insert one character, then waits until every
// replica holds n characters with nothing in flight: one edit in flight at
// a time.
func edit(peers []*peer, n int) {
	peers[n%len(peers)].insert(0, string(rune('a'+n%26)))
	for _, pr := range peers {
		pr.until(fmt.Sprintf("edit %d everywhere", n), func() bool {
			text, pending := pr.Text()
			return len(text) == n && pending == 0
		})
	}
}

// TestOTCommitRidesWithSubmission: under -engine ot the daemon relays each
// submission and posts its commit from inside the same drain, and both leave
// in one frame. With one edit in flight at a time, every participant gets
// exactly one items frame per edit — the others the submission with its
// commit, the submitter the commit — and the replicas converge.
func TestOTCommitRidesWithSubmission(t *testing.T) {
	pushes := &pushCounter{}
	peers := editors(t, engine.OT, pushes)
	const ops = 20
	for n := 1; n <= ops; n++ {
		edit(peers, n)
	}
	frames := pushes.reset()
	for _, pr := range peers {
		if id := pr.Client.ID(); frames[id] != ops {
			t.Errorf("%s got %d items frames for %d edits, want one each", id, frames[id], ops)
		}
		if text, _ := pr.Text(); text != first(peers[0].Text()) {
			t.Errorf("%s has %q, p0 has %q", pr.Client.ID(), text, first(peers[0].Text()))
		}
	}
}

// frameCounter counts the frames, and their bytes, that every site hands
// its transport for to, or for anyone when to is "": a WrapTransport seam.
type frameCounter struct {
	to            string
	frames, bytes atomic.Int64
}

func (c *frameCounter) wrap(ep transport.Endpoint) transport.Endpoint { return countedFrames{ep, c} }

type countedFrames struct {
	transport.Endpoint
	c *frameCounter
}

func (e countedFrames) Send(to string, data []byte) error {
	if e.c.to == "" || e.c.to == to {
		e.c.frames.Add(1)
		e.c.bytes.Add(int64(len(data)))
	}
	return e.Endpoint.Send(to, data)
}

// TestWireBytesPerEdit pins the exact wire cost of an edit with nothing else
// in flight. Four participants edit one document in turn over loopback TCP,
// an insert at position 0 and then its delete, and every edit's frames and
// frame bytes, counted at every site's WrapTransport seam (the transport's
// 6+len(id) header not included), are the same fixed count. The daemon's clock is stopped
// at one second, so every item's At is the 5-byte varint a live daemon
// writes between 0.27 s and 34 s of uptime. Under CRDT an edit is one post
// and 3 pushes; under OT one post and 4 pushes: the others get the
// submission with its commit in one frame, the submitter the commit.
//
// The OT count, frame by frame. A frame is 8 bytes of magic, version,
// encoding and body length plus its tag, and a push body is Doc "doc" (4)
// and the item count (1) before its items. An item in full is Seq (1),
// From, Kind "eng/op" (7), Body and At (5). The submission body is
// "!host|", a kind byte and 5 bytes of op (12); the commit body is "|", a
// kind byte and 8 bytes of commit (10).
//   - the post, 20+27 = 47: the tag "session/post" (12), then Doc, From
//     "pN" (3), Kind and the submission body (13);
//   - the submitter's push, 21+5+30 = 56: the tag "session/items" (13) and
//     the commit in full, From "!host" (6);
//   - each other participant's push, 21+5+29+20 = 75: the submission in
//     full (From "pN", 3), then the commit against it: Seq +1 (1), From a
//     new string "!host" (6), Kind a reference to the first item's (1), Body
//     (11) and At +0 (1). Written in full, as frame version 1 did, the
//     commit was 30 bytes and this push 85.
//
// 47 + 56 + 3×75 = 328 (358 in version 1). Under CRDT every push carries one
// item, which is written in full, so the 248 did not move.
func TestWireBytesPerEdit(t *testing.T) {
	for _, c := range []struct {
		eng           string
		pushes, bytes int64
	}{
		{engine.CRDT, 3, 248},
		{engine.OT, 4, 328},
	} {
		t.Run(c.eng, func(t *testing.T) {
			wire, pushes := &frameCounter{}, &pushCounter{}
			cfg := hostConfig(c.eng)
			cfg.WrapTransport = wire.wrap
			cfg.Middleware = []fabric.Middleware{pushes.tap()}
			tep, err := transport.ListenTCP(HostID, cfg.Listen, transport.NewAddressBook())
			if err != nil {
				t.Fatal(err)
			}
			ep := cfg.edge(tep)
			t.Cleanup(func() { ep.Close() })
			if _, err := NewHost(ep, func() time.Duration { return time.Second }, cfg); err != nil {
				t.Fatal(err)
			}
			d := &Daemon{addr: tep.Addr(), ep: ep}
			peers := make([]*peer, 4)
			announced := make([]int, len(peers))
			for i := range peers {
				pr := dial(t, d, fmt.Sprintf("p%d", i), "doc", Config{Engine: c.eng, WrapTransport: wire.wrap})
				pr.Client.OnPresence = func(string, session.Presence) { pr.note(func() { announced[i]++ }) }
				pr.join()
				peers[i] = pr
			}
			// Each join is announced to the members that joined before it.
			for i, pr := range peers {
				pr.until("every later join announced", func() bool { return announced[i] == len(peers)-1-i })
			}
			wire.frames.Store(0)
			wire.bytes.Store(0)
			pushes.reset()
			for n := range 4 {
				pr := peers[n%len(peers)]
				text := ""
				if n%2 == 0 {
					text = string(rune('a' + n))
					pr.insert(0, text)
				} else if err := pr.Edit(func(d engine.Doc) ([]engine.Msg, error) { return d.Delete(0) }); err != nil {
					t.Fatal(err)
				}
				for _, pr := range peers {
					pr.until(fmt.Sprintf("edit %d everywhere", n), func() bool {
						got, pending := pr.Text()
						return got == text && pending == 0
					})
				}
				frames, bytes := wire.frames.Swap(0), wire.bytes.Swap(0)
				var sent int64
				for _, f := range pushes.reset() {
					sent += int64(f)
				}
				if frames != 1+c.pushes || sent != c.pushes || bytes != c.bytes {
					t.Errorf("edit %d: %d frames (%d pushes) of %d bytes, want %d (%d) of %d", n, frames, sent, bytes, 1+c.pushes, c.pushes, c.bytes)
				}
			}
		})
	}
}

// TestCatchUpJoinAckBytes pins the wire bytes of a catch-up, the paper's
// participant back from a disconnection: two writers take 400 turns
// inserting one character each into a CRDT document, and then a roamer
// joins and gets every item in one join ack. The daemon's clock is stopped
// at one second, as in TestWireBytesPerEdit, so the count is exact: 10 941
// bytes. The ack writes its first item in full and each later one against
// the item before it, which saves 12 or 13 bytes an item: the author is a
// one-byte reference where "w0" took 3, the kind another where "eng/op"
// took 7, the Seq step one byte where the Seq took one or two, and the At
// step 0, one byte where the clock's one second took 5. Frame version 1,
// which wrote every item in full, sent 16 000 bytes.
func TestCatchUpJoinAckBytes(t *testing.T) {
	toRoamer := &frameCounter{to: "roamer"}
	cfg := hostConfig(engine.CRDT)
	cfg.WrapTransport = toRoamer.wrap
	tep, err := transport.ListenTCP(HostID, cfg.Listen, transport.NewAddressBook())
	if err != nil {
		t.Fatal(err)
	}
	ep := cfg.edge(tep)
	t.Cleanup(func() { ep.Close() })
	if _, err := NewHost(ep, func() time.Duration { return time.Second }, cfg); err != nil {
		t.Fatal(err)
	}
	d := &Daemon{addr: tep.Addr(), ep: ep}
	writers := []*peer{dial(t, d, "w0", "doc", Config{Engine: engine.CRDT}), dial(t, d, "w1", "doc", Config{Engine: engine.CRDT})}
	for _, w := range writers {
		w.join()
	}
	const backlog = 400
	for n := 1; n <= backlog; n++ {
		edit(writers, n)
	}
	roamer := dial(t, d, "roamer", "doc", Config{Engine: engine.CRDT})
	roamer.join()
	roamer.until("the backlog", func() bool { return len(roamer.items) == backlog })
	if text, _ := roamer.Text(); text != first(writers[0].Text()) {
		t.Errorf("roamer has %q, w0 has %q", text, first(writers[0].Text()))
	}
	if frames, bytes := toRoamer.frames.Load(), toRoamer.bytes.Load(); frames != 1 || bytes != 10941 {
		t.Errorf("the roamer was sent %d frames of %d bytes, want one join ack of 10941", frames, bytes)
	}
}

// TestHostOTIntegrateAllocs pins what the OT daemon's integration step
// allocates for one submission, from the item to the commit's post: 1
// object, the commit body's string, which the log keeps. engine.Server
// parses the submission into a value on the stack and appends the commit to
// the site's kept buffer. Behind a Pump the step took 6: DecodeItemBody's
// copy and MsgSubmit box, the commit's MsgCommit box and the one-message
// slice it came in, the string, and the slice Deliver returned it in. The
// submissions are p1's keystrokes, each made once the commit of the one
// before it came back, recorded against a second site and replayed.
func TestHostOTIntegrateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const runs = 300
	var posted string
	newSite := func() *otSite {
		return &otSite{srv: engine.NewServer(session.HostAuthor), post: func(body string) { posted = body }}
	}
	eng, err := engine.New(engine.OT, "doc", "p1", session.HostAuthor)
	if err != nil {
		t.Fatal(err)
	}
	client := newPump("p1", eng, func(body string) error { posted = body; return nil })
	recorder := newSite()
	subs := make([]session.Item, runs+1) // AllocsPerRun runs once more to warm up
	for i := range subs {
		posted = ""
		if err := client.Edit(func(d engine.Doc) ([]engine.Msg, error) { return d.Insert(0, 'x') }); err != nil || posted == "" {
			t.Fatalf("keystroke %d posted %q, %v; want one submission", i, posted, err)
		}
		subs[i] = session.Item{Seq: uint64(2*i + 1), From: "p1", Kind: engine.ItemKind, Body: posted}
		commit := recorder.integrate(subs[i])
		if commit == "" || commit != posted {
			t.Fatalf("submission %d committed %q, posted %q; want one commit, posted", i, commit, posted)
		}
		if _, err := client.Deliver(session.Item{Seq: uint64(2*i + 2), From: session.HostAuthor, Kind: engine.ItemKind, Body: commit}); err != nil {
			t.Fatal(err)
		}
	}
	site, next := newSite(), 0
	n := testing.AllocsPerRun(runs, func() {
		if commit := site.integrate(subs[next]); commit == "" {
			t.Fatalf("submission %d committed nothing", next)
		}
		next++
	})
	if n != 1 {
		t.Errorf("integrating one OT submission at the daemon allocates %v objects, want 1", n)
	}
	if text := site.srv.Text(); len(text) != runs+1 {
		t.Errorf("the site holds %d runes, want %d", len(text), runs+1)
	}
}
