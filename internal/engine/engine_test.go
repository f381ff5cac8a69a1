package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crdt"
	"repro/internal/ot"
)

// bus shuttles engine messages between replicas in memory, with optional
// seeded loss — the engine binding is transport-free, so the tests drive
// it directly and the fabric/netsim paths are covered by bench and chaos.
type bus struct {
	docs    map[string]Doc
	sites   []string
	queue   []env
	r       *rand.Rand
	lossPct int
}

type env struct {
	from, to string
	body     any
}

func newBus(t *testing.T, seed int64, lossPct int, kind string, sites ...string) *bus {
	b := &bus{docs: map[string]Doc{}, sites: sites, r: rand.New(rand.NewSource(seed)), lossPct: lossPct}
	for i, d := range buildDocs(t, kind, sites...) {
		b.docs[sites[i]] = d
	}
	return b
}

func (b *bus) send(from string, msgs []Msg) {
	for _, m := range msgs {
		if m.To != "" {
			b.queue = append(b.queue, env{from, m.To, m.Body})
			continue
		}
		for _, s := range b.sites {
			if s != from {
				b.queue = append(b.queue, env{from, s, m.Body})
			}
		}
	}
}

func (b *bus) drain(t *testing.T) {
	t.Helper()
	for len(b.queue) > 0 {
		e := b.queue[0]
		b.queue = b.queue[1:]
		if b.lossPct > 0 && b.r.Intn(100) < b.lossPct {
			continue
		}
		out, err := b.docs[e.to].Apply(e.from, e.body)
		if err != nil {
			t.Fatalf("%s applying %T from %s: %v", e.to, e.body, e.from, err)
		}
		b.send(e.to, out)
	}
}

func (b *bus) converged() bool {
	ref := b.docs[b.sites[0]].Text()
	for _, s := range b.sites {
		if d := b.docs[s]; d.Text() != ref || d.Pending() != 0 {
			return false
		}
	}
	return true
}

func (b *bus) edit(t *testing.T, r *rand.Rand, site string) {
	t.Helper()
	d := b.docs[site]
	n := len([]rune(d.Text()))
	var msgs []Msg
	var err error
	if n == 0 || r.Intn(100) < 70 {
		msgs, err = d.Insert(r.Intn(n+1), rune('a'+r.Intn(26)))
	} else {
		msgs, err = d.Delete(r.Intn(n))
	}
	if err != nil {
		t.Fatal(err)
	}
	b.send(site, msgs)
}

func buildDocs(t *testing.T, kind string, sites ...string) []Doc {
	t.Helper()
	docs := make([]Doc, len(sites))
	for i, s := range sites {
		d, err := New(kind, "doc1", s, sites[0])
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	return docs
}

func TestEnginesConvergeOnCleanLinks(t *testing.T) {
	for _, kind := range []string{OT, CRDT} {
		r := rand.New(rand.NewSource(7))
		b := newBus(t, 7, 0, kind, "srv", "c1", "c2", "c3")
		for i := 0; i < 200; i++ {
			b.edit(t, r, b.sites[r.Intn(len(b.sites))])
			b.drain(t)
		}
		if !b.converged() {
			for _, s := range b.sites {
				t.Logf("%s %s: %q pending %d", kind, s, b.docs[s].Text(), b.docs[s].Pending())
			}
			t.Fatalf("%s engine did not converge on clean links", kind)
		}
		if b.docs["c1"].Text() == "" {
			t.Fatalf("%s engine produced an empty document", kind)
		}
	}
}

func TestEnginesRecoverFromLossViaTick(t *testing.T) {
	for _, kind := range []string{OT, CRDT} {
		r := rand.New(rand.NewSource(11))
		b := newBus(t, 11, 40, kind, "srv", "c1", "c2")
		for i := 0; i < 60; i++ {
			b.edit(t, r, b.sites[r.Intn(len(b.sites))])
			b.drain(t) // 40% of deliveries vanish
		}
		rounds := 0
		for ; rounds < 500 && !b.converged(); rounds++ {
			for _, s := range b.sites {
				b.send(s, b.docs[s].Tick())
			}
			b.drain(t)
		}
		if !b.converged() {
			for _, s := range b.sites {
				t.Logf("%s %s: %q pending %d", kind, s, b.docs[s].Text(), b.docs[s].Pending())
			}
			t.Fatalf("%s engine did not recover from loss", kind)
		}
		t.Logf("%s recovered after %d tick rounds", kind, rounds)
	}
}

func TestEngineMessagesSurviveReorderAndDuplication(t *testing.T) {
	// CRDT replicas receive each other's ops shuffled and duplicated; the
	// hold-back gate must still converge them without Tick.
	r := rand.New(rand.NewSource(23))
	docs := buildDocs(t, CRDT, "a", "b")
	var aOut []Msg
	for i := 0; i < 30; i++ {
		msgs, err := docs[0].Insert(r.Intn(i+1), rune('a'+r.Intn(26)))
		if err != nil {
			t.Fatal(err)
		}
		aOut = append(aOut, msgs...)
	}
	aOut = append(aOut, aOut[:10]...) // duplicates
	r.Shuffle(len(aOut), func(i, j int) { aOut[i], aOut[j] = aOut[j], aOut[i] })
	for _, m := range aOut {
		if _, err := docs[1].Apply("a", m.Body); err != nil {
			t.Fatal(err)
		}
	}
	if docs[1].Text() != docs[0].Text() || docs[1].Pending() != 0 {
		t.Fatalf("reordered ops diverged: %q vs %q (pending %d)", docs[1].Text(), docs[0].Text(), docs[1].Pending())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("paxos", "d", "a", "a"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := New(OT, "d", "a", ""); err == nil {
		t.Fatal("ot engine without server accepted")
	}
	d, err := New(CRDT, "d7", "a", "")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := d.Insert(0, 'x')
	if err != nil {
		t.Fatal(err)
	}
	if op, ok := msgs[0].Body.(*crdt.MsgOp); !ok || op.Doc != "d7" || op.Op.Site != "a" {
		t.Fatalf("crdt doc d7 at site a sent %#v", msgs[0].Body)
	}
}

// Payloads are pointers on every substrate (fabric.Endpoint's contract): a
// struct handed to Apply by value is foreign traffic for both engines.
func TestApplyRejectsByValuePayloads(t *testing.T) {
	for _, tc := range []struct {
		engine  string
		payload any
	}{
		{CRDT, crdt.MsgOp{Doc: "d"}},
		{CRDT, crdt.MsgState{Doc: "d"}},
		{OT, MsgCommit{Doc: "d"}},
		{OT, MsgPull{Doc: "d"}},
	} {
		d, err := New(tc.engine, "d", "a", "a")
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.Apply("b", tc.payload)
		if want := fmt.Sprintf("cannot apply %T", tc.payload); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s Apply(%T by value) = %v, want an error containing %q", tc.engine, tc.payload, err, want)
		}
	}
}

func TestOTWireRoundTrip(t *testing.T) {
	codec := NewWireCodec()
	op := ot.Op{Kind: ot.Insert, Pos: 4, Ch: 'ß', Site: "c1"}
	msgs := []any{
		&MsgSubmit{Doc: "d", Sub: ot.Submission{Op: op, Base: 9, Site: "c1", Seq: 3}},
		&MsgCommit{Doc: "d", C: ot.Committed{Op: op, Rev: 10, Site: "c1", Seq: 3}},
		&MsgPull{Doc: "d", Base: 7},
		&MsgCommits{Doc: "d", Cs: []ot.Committed{{Op: op, Rev: 1, Site: "c1", Seq: 1}, {Op: op, Rev: 2, Site: "c2", Seq: 1}}},
		&MsgCommits{Doc: "d"},
	}
	for _, msg := range msgs {
		data, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		out, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if !reflect.DeepEqual(out, msg) {
			t.Errorf("round trip changed %T:\n got %+v\nwant %+v", msg, out, msg)
		}
	}
	// Every engine payload names its document.
	for _, msg := range msgs {
		if doc := reflect.ValueOf(msg).Elem().FieldByName("Doc"); doc.String() != "d" {
			t.Errorf("%T does not name its document", msg)
		}
	}
}

// TestOTApplyCommitAllocs pins the cost of integrating a foreign commit at
// an OT client: nothing. The text is edited in place (its growth to 101
// runes is a few amortised reallocations, under one per run), and a
// submission the client keeps in flight is held by value.
func TestOTApplyCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	d := newOTDoc("d", "c1", "srv")
	m := &MsgCommit{Doc: "d", C: ot.Committed{Op: ot.Op{Kind: ot.Insert, Ch: 'x', Site: "c2"}, Site: "c2"}}
	n := testing.AllocsPerRun(100, func() {
		m.C.Rev = d.cl.Base() + 1
		m.C.Seq++
		if _, err := d.Apply("srv", m); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Apply of a foreign commit allocates %v objects, want 0", n)
	}
	if got := len(d.Text()); got != 101 {
		t.Fatalf("text has %d runes after 101 commits", got)
	}
}
