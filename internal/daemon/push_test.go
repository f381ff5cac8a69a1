package daemon

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
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

// BenchmarkDaemonTCP prices one edit end to end over loopback TCP: a
// daemon and four participants in this process, one edit in flight at a
// time, each op done when every replica has applied it. relay is the CRDT
// daemon (it only relays), ot the OT daemon (it relays and commits).
// push-frames/op counts the items frames the daemon sends.
func BenchmarkDaemonTCP(b *testing.B) {
	for _, c := range []struct{ name, eng string }{{"relay", engine.CRDT}, {"ot", engine.OT}} {
		b.Run(c.name, func(b *testing.B) {
			pushes := &pushCounter{}
			peers := editors(b, c.eng, pushes)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 1; n <= b.N; n++ {
				edit(peers, n)
			}
			b.StopTimer()
			total := 0
			for _, f := range pushes.reset() {
				total += f
			}
			b.ReportMetric(float64(total)/float64(b.N), "push-frames/op")
		})
	}
}
