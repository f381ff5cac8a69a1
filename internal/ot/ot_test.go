package ot

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestApplyInsertDelete(t *testing.T) {
	doc := []rune("hello")
	doc, err := Apply(doc, Op{Kind: Insert, Pos: 5, Ch: '!'})
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != "hello!" {
		t.Fatalf("doc = %q", string(doc))
	}
	doc, err = Apply(doc, Op{Kind: Delete, Pos: 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(doc) != "ello!" {
		t.Fatalf("doc = %q", string(doc))
	}
	doc, err = Apply(doc, Op{Kind: Noop})
	if err != nil || string(doc) != "ello!" {
		t.Fatalf("noop changed doc: %q, %v", string(doc), err)
	}
}

func TestApplyOutOfRange(t *testing.T) {
	if _, err := Apply([]rune("ab"), Op{Kind: Insert, Pos: 3, Ch: 'x'}); err == nil {
		t.Error("insert beyond end should fail")
	}
	if _, err := Apply([]rune("ab"), Op{Kind: Delete, Pos: 2}); err == nil {
		t.Error("delete beyond end should fail")
	}
	if _, err := Apply([]rune("ab"), Op{Kind: Delete, Pos: -1}); err == nil {
		t.Error("negative delete should fail")
	}
	if _, err := Apply([]rune("ab"), Op{Kind: Kind(9)}); err == nil || !strings.Contains(err.Error(), "unknown op kind 9") {
		t.Errorf("an unknown kind applied: %v", err)
	}
}

func TestTransformSameDelete(t *testing.T) {
	a := Op{Kind: Delete, Pos: 3, Site: "a"}
	b := Op{Kind: Delete, Pos: 3, Site: "b"}
	ta := Transform(a, b)
	if ta.Kind != Noop {
		t.Errorf("double delete should dissolve, got %v", ta)
	}
}

func TestTransformInsertTieBreak(t *testing.T) {
	a := Op{Kind: Insert, Pos: 2, Ch: 'A', Site: "siteB"}
	b := Op{Kind: Insert, Pos: 2, Ch: 'B', Site: "siteA"}
	// siteA < siteB, so siteA's char goes first: a shifts.
	if got := Transform(a, b); got.Pos != 3 {
		t.Errorf("Transform(a,b).Pos = %d, want 3", got.Pos)
	}
	if got := Transform(b, a); got.Pos != 2 {
		t.Errorf("Transform(b,a).Pos = %d, want 2", got.Pos)
	}
}

// genOp builds a valid op for a doc of length n from quick-generated bytes.
// Concurrent ops must come from distinct sites (same-site ops are never
// concurrent in the protocols), so the site is forced by the caller.
func genOp(kindSel, posSel, chSel byte, n int, site string) Op {
	if n == 0 || kindSel%2 == 0 {
		return Op{Kind: Insert, Pos: int(posSel) % (n + 1), Ch: rune('a' + chSel%26), Site: site}
	}
	return Op{Kind: Delete, Pos: int(posSel) % n, Site: site}
}

// TestQuickTP1 verifies the fundamental transformation property over random
// documents and op pairs: both application orders converge.
func TestQuickTP1(t *testing.T) {
	f := func(docSel [6]byte, ka, pa, ca, kb, pb, cb byte) bool {
		doc := make([]rune, 0, 6)
		for _, d := range docSel {
			doc = append(doc, rune('A'+d%26))
		}
		a := genOp(ka, pa, ca, len(doc), "site1")
		b := genOp(kb, pb, cb, len(doc), "site2")

		// Apply edits in place, so each branch starts from its own copy.
		d1, err1 := Apply(slices.Clone(doc), a)
		if err1 != nil {
			return false
		}
		d1, err1 = Apply(d1, Transform(b, a))
		if err1 != nil {
			return false
		}
		d2, err2 := Apply(slices.Clone(doc), b)
		if err2 != nil {
			return false
		}
		d2, err2 = Apply(d2, Transform(a, b))
		if err2 != nil {
			return false
		}
		return string(d1) == string(d2)
	}
	cfg := &quick.Config{MaxCount: 5000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// applyCopy is the reference Apply: it builds a new document and never
// touches doc.
func applyCopy(doc []rune, op Op) []rune {
	out := make([]rune, 0, len(doc)+1)
	switch op.Kind {
	case Insert:
		out = append(append(append(out, doc[:op.Pos]...), op.Ch), doc[op.Pos:]...)
	case Delete:
		out = append(append(out, doc[:op.Pos]...), doc[op.Pos+1:]...)
	default:
		out = append(out, doc...)
	}
	return out
}

// TestApplyInPlace runs random op sequences over random documents, some
// with spare capacity so that inserts reuse the storage, and checks the
// in-place Apply against the copying reference after every op. Every so
// often it also applies an out-of-range op, which must fail and leave the
// document, its length and its storage untouched.
func TestApplyInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(12)
		doc := make([]rune, n, n+rng.Intn(4))
		for i := range doc {
			doc[i] = rune('A' + rng.Intn(26))
		}
		want := slices.Clone(doc)
		for step := 0; step < 40; step++ {
			if rng.Intn(5) == 0 {
				bad := Op{Kind: Delete, Pos: len(doc) + rng.Intn(3)}
				switch rng.Intn(3) {
				case 0:
					bad = Op{Kind: Insert, Pos: len(doc) + 1 + rng.Intn(3), Ch: 'z'}
				case 1:
					bad.Pos = -1 - rng.Intn(3)
				}
				before := slices.Clone(doc[:cap(doc)])
				got, err := Apply(doc, bad)
				if err == nil {
					t.Fatalf("trial %d: %v on %q did not fail", trial, bad, string(doc))
				}
				if len(got) != len(doc) || cap(got) != cap(doc) || !slices.Equal(doc[:cap(doc)], before) {
					t.Fatalf("trial %d: failed %v changed the document", trial, bad)
				}
				continue
			}
			op := Op{Kind: Noop}
			if rng.Intn(8) > 0 {
				op = randomOp(rng, len(doc), "s")
			}
			want = applyCopy(want, op)
			var err error
			if doc, err = Apply(doc, op); err != nil {
				t.Fatalf("trial %d: %v: %v", trial, op, err)
			}
			if !slices.Equal(doc, want) {
				t.Fatalf("trial %d step %d: %v gave %q, want %q", trial, step, op, string(doc), string(want))
			}
		}
	}
}

func randomOp(rng *rand.Rand, docLen int, site string) Op {
	if docLen == 0 || rng.Intn(2) == 0 {
		return Op{Kind: Insert, Pos: rng.Intn(docLen + 1), Ch: rune('a' + rng.Intn(26)), Site: site}
	}
	return Op{Kind: Delete, Pos: rng.Intn(docLen), Site: site}
}

// --- Jupiter (centrally ordered) ---

// jupiterHarness runs clients against a server with an outbound commit
// queue per client, simulating arbitrary network interleavings under the
// constraint that commits reach each client in revision order.
type jupiterHarness struct {
	srv     *Server
	clients []*Client
	// inbox[i] holds committed ops not yet integrated by client i.
	inbox [][]Committed
	// wire holds submissions en route to the server.
	wire []Submission
}

func newJupiterHarness(n int, initial string) *jupiterHarness {
	h := &jupiterHarness{srv: NewServer(initial)}
	for i := 0; i < n; i++ {
		h.clients = append(h.clients, NewClient(string(rune('a'+i)), h.srv))
		h.inbox = append(h.inbox, nil)
	}
	return h
}

func (h *jupiterHarness) generate(t *testing.T, ci int, op Op) {
	t.Helper()
	sub, send, err := h.clients[ci].Generate(op)
	if err != nil {
		t.Fatal(err)
	}
	if send {
		h.wire = append(h.wire, sub)
	}
}

// pump delivers one queued submission to the server and fans the commit out.
func (h *jupiterHarness) pump(t *testing.T) bool {
	t.Helper()
	if len(h.wire) == 0 {
		return false
	}
	sub := h.wire[0]
	h.wire = h.wire[1:]
	cm, err := h.srv.Submit(sub.Op, sub.Base, sub.Site, sub.Seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.inbox {
		h.inbox[i] = append(h.inbox[i], cm)
	}
	return true
}

// drainClient integrates all queued commits at client i.
func (h *jupiterHarness) drainClient(t *testing.T, i int) {
	t.Helper()
	for len(h.inbox[i]) > 0 {
		cm := h.inbox[i][0]
		h.inbox[i] = h.inbox[i][1:]
		next, send, err := h.clients[i].Integrate(cm)
		if err != nil {
			t.Fatal(err)
		}
		if send {
			h.wire = append(h.wire, next)
		}
	}
}

func (h *jupiterHarness) settle(t *testing.T) {
	t.Helper()
	for {
		moved := h.pump(t)
		for i := range h.clients {
			h.drainClient(t, i)
		}
		if !moved && len(h.wire) == 0 {
			return
		}
	}
}

func TestJupiterBasicConvergence(t *testing.T) {
	h := newJupiterHarness(3, "base")
	h.generate(t, 0, Op{Kind: Insert, Pos: 0, Ch: 'x'})
	h.generate(t, 1, Op{Kind: Insert, Pos: 4, Ch: 'y'})
	h.generate(t, 2, Op{Kind: Delete, Pos: 1})
	h.settle(t)
	want := h.srv.Text()
	for i, c := range h.clients {
		if c.Text() != want {
			t.Errorf("client %d = %q, server = %q", i, c.Text(), want)
		}
		if c.PendingCount() != 0 {
			t.Errorf("client %d pending = %d", i, c.PendingCount())
		}
	}
}

func TestJupiterBufferedSubmissions(t *testing.T) {
	h := newJupiterHarness(2, "")
	// Client 0 types a burst before anything is acknowledged.
	for i, ch := range "hello" {
		h.generate(t, 0, Op{Kind: Insert, Pos: i, Ch: ch})
	}
	if h.clients[0].PendingCount() != 5 {
		t.Fatalf("pending = %d", h.clients[0].PendingCount())
	}
	h.settle(t)
	if h.srv.Text() != "hello" {
		t.Fatalf("server = %q", h.srv.Text())
	}
	if h.clients[1].Text() != "hello" {
		t.Fatalf("client 1 = %q", h.clients[1].Text())
	}
}

func TestJupiterRandomConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		h := newJupiterHarness(4, "the quick brown fox")
		steps := 60
		for s := 0; s < steps; s++ {
			switch rng.Intn(4) {
			case 0: // local edit at a random client
				ci := rng.Intn(len(h.clients))
				op := randomOp(rng, len(h.clients[ci].Text()), "")
				h.generate(t, ci, op)
			case 1: // server processes one submission
				h.pump(t)
			case 2: // one client integrates one commit
				ci := rng.Intn(len(h.clients))
				if len(h.inbox[ci]) > 0 {
					cm := h.inbox[ci][0]
					h.inbox[ci] = h.inbox[ci][1:]
					next, send, err := h.clients[ci].Integrate(cm)
					if err != nil {
						t.Fatal(err)
					}
					if send {
						h.wire = append(h.wire, next)
					}
				}
			case 3: // a client drains fully
				h.drainClient(t, rng.Intn(len(h.clients)))
			}
		}
		h.settle(t)
		want := h.srv.Text()
		for i, c := range h.clients {
			if c.Text() != want {
				t.Fatalf("trial %d: client %d = %q, server = %q", trial, i, c.Text(), want)
			}
		}
	}
}

func TestServerBadRevision(t *testing.T) {
	srv := NewServer("x")
	if _, err := srv.Submit(Op{Kind: Insert, Pos: 0, Ch: 'a'}, 5, "c", 1); err == nil {
		t.Error("future base revision should fail")
	}
}

// TestServerFilesOpUnderSite: a commit's op is its submitter's, whatever
// Site the submitted op named, and stays so through the transforms against
// earlier commits. The engine's wire carries a commit's site once and
// relies on this; the tie-break between equal insert positions reads it.
func TestServerFilesOpUnderSite(t *testing.T) {
	srv := NewServer("")
	if _, err := srv.Submit(Op{Kind: Insert, Pos: 0, Ch: 'a'}, 0, "b", 1); err != nil {
		t.Fatal(err)
	}
	cm, err := srv.Submit(Op{Kind: Insert, Pos: 0, Ch: 'x', Site: "z"}, 0, "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Site != "a" || cm.Op.Site != "a" {
		t.Fatalf("commit %+v: want site a and op site a", cm)
	}
	if srv.Text() != "xa" { // a sorts before b, so its insert goes first
		t.Fatalf("server text %q, want xa", srv.Text())
	}
}

func TestClientOutOfOrderCommit(t *testing.T) {
	srv := NewServer("")
	c := NewClient("c", srv)
	cm := Committed{Op: Op{Kind: Insert, Pos: 0, Ch: 'a', Site: "other"}, Rev: 5, Site: "other"}
	if _, _, err := c.Integrate(cm); err == nil {
		t.Error("out-of-order commit should fail")
	}
}

// TestClientIntegrateAllOrNothing feeds a client two commits it must
// refuse — an ack whose seq is not the one in flight, and foreign commits
// whose op lies outside the document (the negative one would shift the
// pending insert if the bridge ran before the apply) — and checks that none
// moves the client: base, text and pending ops stay as they were, and the
// correct next commit still integrates.
func TestClientIntegrateAllOrNothing(t *testing.T) {
	srv := NewServer("abc")
	c := NewClient("c", srv)
	sub, _, err := c.Generate(Op{Kind: Insert, Pos: 1, Ch: 'x'})
	if err != nil {
		t.Fatal(err)
	}
	if _, send, err := c.Generate(Op{Kind: Delete, Pos: 3}); send || err != nil {
		t.Fatalf("second op: send=%v err=%v", send, err)
	}
	state := func() (int, string, int, []pendingOp) {
		return c.Base(), c.Text(), c.PendingCount(), slices.Clone(c.pending)
	}
	base, text, n, pending := state()
	for _, bad := range []Committed{
		{Op: sub.Op, Rev: 1, Site: "c", Seq: sub.Seq + 1},
		{Op: Op{Kind: Delete, Pos: 9, Site: "d"}, Rev: 1, Site: "d", Seq: 1},
		{Op: Op{Kind: Delete, Pos: -1, Site: "d"}, Rev: 1, Site: "d", Seq: 1},
	} {
		if _, _, err := c.Integrate(bad); err == nil {
			t.Fatalf("Integrate(%+v) succeeded", bad)
		}
		b, tx, k, p := state()
		if b != base || tx != text || k != n || !slices.Equal(p, pending) {
			t.Fatalf("Integrate(%+v) moved the client: base %d→%d, text %q→%q, pending %v→%v",
				bad, base, b, text, tx, pending, p)
		}
	}
	// A foreign commit, then the ack, integrate as if nothing had failed.
	if _, err := srv.Submit(Op{Kind: Insert, Pos: 0, Ch: 'y', Site: "d"}, 0, "d", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(sub.Op, sub.Base, sub.Site, sub.Seq); err != nil {
		t.Fatal(err)
	}
	for _, cm := range srv.CommittedSince(0) {
		next, send, err := c.Integrate(cm)
		if err != nil {
			t.Fatalf("Integrate(%+v): %v", cm, err)
		}
		if send {
			if _, err := srv.Submit(next.Op, next.Base, next.Site, next.Seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := c.Integrate(srv.CommittedSince(2)[0]); err != nil {
		t.Fatal(err)
	}
	if c.Text() != srv.Text() || c.Text() != "yaxb" || c.PendingCount() != 0 {
		t.Fatalf("client %q (pending %d), server %q, want yaxb", c.Text(), c.PendingCount(), srv.Text())
	}
}

// TestClientSteadyStateAllocs pins a keystroke cycle at a client — a local
// op, its ack, and a foreign op — at zero allocations once warm: the
// document is edited in place (it oscillates between "ab" and "xab") and
// the pending queue keeps its backing array across acks.
func TestClientSteadyStateAllocs(t *testing.T) {
	c := NewClient("c", NewServer("ab"))
	cycle := func() {
		sub, send, err := c.Generate(Op{Kind: Insert, Pos: 0, Ch: 'x'})
		if err != nil || !send {
			t.Fatalf("generate: send=%v err=%v", send, err)
		}
		if _, _, err := c.Integrate(Committed{Op: sub.Op, Rev: c.Base() + 1, Site: "c", Seq: sub.Seq}); err != nil {
			t.Fatal(err)
		}
		del := Op{Kind: Delete, Pos: 0, Site: "d"}
		if _, _, err := c.Integrate(Committed{Op: del, Rev: c.Base() + 1, Site: "d", Seq: sub.Seq}); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm-up: the document and the pending queue reach their size
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a Generate/ack/foreign cycle allocates %v objects, want 0", n)
	}
	if c.Text() != "ab" || c.PendingCount() != 0 {
		t.Fatalf("text %q, pending %d", c.Text(), c.PendingCount())
	}
}

func TestKindString(t *testing.T) {
	if Insert.String() != "insert" || Delete.String() != "delete" || Noop.String() != "noop" {
		t.Error("kind names")
	}
	op := Op{Kind: Insert, Pos: 1, Ch: 'x', Site: "s"}
	if op.String() == "" {
		t.Error("op string empty")
	}
}

func BenchmarkTransform(b *testing.B) {
	x := Op{Kind: Insert, Pos: 10, Ch: 'a', Site: "s1"}
	y := Op{Kind: Delete, Pos: 5, Site: "s2"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Transform(x, y)
	}
}

func BenchmarkJupiterRoundTrip(b *testing.B) {
	srv := NewServer("")
	c1 := NewClient("c1", srv)
	c2 := NewClient("c2", srv)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sub, send, err := c1.Generate(Op{Kind: Insert, Pos: 0, Ch: 'x'})
		if err != nil || !send {
			b.Fatal(err)
		}
		cm, err := srv.Submit(sub.Op, sub.Base, sub.Site, sub.Seq)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := c1.Integrate(cm); err != nil {
			b.Fatal(err)
		}
		if _, _, err := c2.Integrate(cm); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClientAccessors(t *testing.T) {
	srv := NewServer("abc")
	c := NewClient("c1", srv)
	if c.ID() != "c1" || c.Base() != 0 {
		t.Error("client accessors")
	}
	sub, send, _ := c.Generate(Op{Kind: Insert, Pos: 0, Ch: 'y'})
	if !send || c.PendingCount() != 1 {
		t.Error("pending accounting")
	}
	cm, _ := srv.Submit(sub.Op, sub.Base, sub.Site, sub.Seq)
	c.Integrate(cm)
	if c.Base() != 1 || c.PendingCount() != 0 {
		t.Errorf("after ack: base=%d pending=%d", c.Base(), c.PendingCount())
	}
}
