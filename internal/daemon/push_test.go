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
// its transport: a WrapTransport seam.
type frameCounter struct{ frames, bytes atomic.Int64 }

func (c *frameCounter) wrap(ep transport.Endpoint) transport.Endpoint { return countedFrames{ep, c} }

type countedFrames struct {
	transport.Endpoint
	c *frameCounter
}

func (e countedFrames) Send(to string, data []byte) error {
	e.c.frames.Add(1)
	e.c.bytes.Add(int64(len(data)))
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
func TestWireBytesPerEdit(t *testing.T) {
	for _, c := range []struct {
		eng           string
		pushes, bytes int64
	}{
		{engine.CRDT, 3, 248},
		{engine.OT, 4, 358},
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
				} else if _, err := pr.Edit(func(d engine.Doc) ([]engine.Msg, error) { return d.Delete(0) }); err != nil {
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
