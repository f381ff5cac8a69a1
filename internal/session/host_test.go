package session

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// TestMultiHostDemux: two documents share one host endpoint; items never
// cross documents, and the OnItem observer sees each post under its key.
func TestMultiHostDemux(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	h := NewHost(fabric.FromSim(sim.MustAddNode("host")), Synchronous, sim.Now)
	seen := make(map[string][]string)
	h.OnItem = func(doc string, it Item) { seen[doc] = append(seen[doc], it.Body) }

	items := make(map[string][]Item)
	mkClient := func(id, doc string) *Client {
		c := NewClientForDoc(fabric.FromSim(sim.MustAddNode(id)), "host", doc)
		c.OnItem = func(it Item) { items[id] = append(items[id], it) }
		return c
	}
	a1, a2 := mkClient("a1", "docA"), mkClient("a2", "docA")
	b1, b2 := mkClient("b1", "docB"), mkClient("b2", "docB")
	for _, c := range []*Client{a1, a2, b1, b2} {
		if err := c.Join(sim.Now()); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	for _, c := range []*Client{a1, a2, b1, b2} {
		if !c.Joined() {
			t.Fatalf("%s failed to join", c.ID())
		}
	}
	sim.At(time.Millisecond, func() {
		_ = a1.Post("edit", "alpha", sim.Now())
		_ = b1.Post("edit", "beta", sim.Now())
	})
	sim.Run()

	if got := fmt.Sprint(h.Docs()); got != "[docA docB]" {
		t.Fatalf("Docs() = %s", got)
	}
	if len(items["a2"]) != 1 || items["a2"][0].Body != "alpha" {
		t.Fatalf("a2 items = %v, want [alpha]", items["a2"])
	}
	if len(items["b2"]) != 1 || items["b2"][0].Body != "beta" {
		t.Fatalf("b2 items = %v, want [beta]", items["b2"])
	}
	// Cross-document leakage: a docA client must never see docB's item.
	for _, id := range []string{"a1", "a2"} {
		for _, it := range items[id] {
			if it.Body == "beta" {
				t.Fatalf("%s saw docB traffic", id)
			}
		}
	}
	if fmt.Sprint(seen["docA"]) != "[alpha]" || fmt.Sprint(seen["docB"]) != "[beta]" {
		t.Fatalf("OnItem saw %v", seen)
	}
	// Each document has its own sequence space, both starting at 1.
	if items["a2"][0].Seq != 1 || items["b2"][0].Seq != 1 {
		t.Fatalf("per-doc sequences not independent: a=%d b=%d", items["a2"][0].Seq, items["b2"][0].Seq)
	}
}

// TestMultiHostJoinOnlyCreation: a post for an unknown document must not
// allocate host state — only joins open documents.
func TestMultiHostJoinOnlyCreation(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	h := NewHost(fabric.FromSim(sim.MustAddNode("host")), Synchronous, sim.Now)
	stranger := fabric.FromSim(sim.MustAddNode("s"))
	_ = stranger.Send("host", &MsgPost{Doc: "ghost", From: "s", Kind: "edit", Body: "x"}, 64)
	sim.Run()
	if d := h.Host("ghost"); d != nil {
		t.Fatal("post from a stranger allocated a document host")
	}
	if len(h.Docs()) != 0 {
		t.Fatalf("Docs() = %v, want empty", h.Docs())
	}
}

// TestMultiHostOwns: a sharded host drops (and counts) traffic for
// documents another shard owns, instead of forking their logs.
func TestMultiHostOwns(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	h := NewHost(fabric.FromSim(sim.MustAddNode("host")), Synchronous, sim.Now)
	h.Owns = func(doc string) bool { return doc == "mine" }
	cMine := NewClientForDoc(fabric.FromSim(sim.MustAddNode("c1")), "host", "mine")
	cOther := NewClientForDoc(fabric.FromSim(sim.MustAddNode("c2")), "host", "theirs")
	_ = cMine.Join(sim.Now())
	_ = cOther.Join(sim.Now())
	sim.Run()
	if !cMine.Joined() {
		t.Fatal("owned document rejected")
	}
	if cOther.Joined() {
		t.Fatal("foreign document served")
	}
	if h.Host("theirs") != nil {
		t.Fatal("foreign document allocated")
	}
	if h.Rejected() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestMultiHostModeSwitch: one document's SetMode does not touch the other.
func TestMultiHostModeSwitch(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	h := NewHost(fabric.FromSim(sim.MustAddNode("host")), Synchronous, sim.Now)
	a := NewClientForDoc(fabric.FromSim(sim.MustAddNode("a")), "host", "docA")
	b := NewClientForDoc(fabric.FromSim(sim.MustAddNode("b")), "host", "docB")
	_ = a.Join(sim.Now())
	_ = b.Join(sim.Now())
	sim.Run()
	h.Host("docA").SetMode(Asynchronous)
	sim.Run()
	if got := a.Mode(); got != Asynchronous {
		t.Fatalf("docA client mode = %v, want asynchronous", got)
	}
	if got := b.Mode(); got != Synchronous {
		t.Fatalf("docB client mode = %v, want synchronous (leaked switch)", got)
	}
}

// TestHostConcurrentDocuments: documents on one host are served from many
// goroutines at once — each feeding its own document while the others read
// the document map — and no post is lost or crosses documents. Run it with
// -race: the host's map lock and the per-document locks are what it checks.
func TestHostConcurrentDocuments(t *testing.T) {
	h := NewHost(nullEndpoint{}, Synchronous, func() time.Duration { return 0 })
	var mu sync.Mutex
	seen := map[string]int{}
	h.OnItem = func(doc string, it Item) {
		mu.Lock()
		seen[doc]++
		mu.Unlock()
	}
	const docs, posts = 4, 100
	var wg sync.WaitGroup
	for i := 0; i < docs; i++ {
		doc := fmt.Sprintf("d%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range []string{"a", "b"} {
				h.Receive(id, &MsgJoin{Doc: doc, From: id, State: Active})
			}
			for n := 0; n < posts; n++ {
				h.Receive("a", &MsgPost{Doc: doc, From: "a", Kind: "chat", Body: "x"})
				_ = h.Docs()
				_ = h.Host(doc).LogLen()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < docs; i++ {
		doc := fmt.Sprintf("d%d", i)
		if n := h.Host(doc).LogLen(); n != posts || seen[doc] != posts {
			t.Errorf("%s: log %d items, OnItem saw %d; want %d", doc, n, seen[doc], posts)
		}
	}
}
