package session

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunklog"
	"repro/internal/fabric"
)

// recorder is a host endpoint that keeps, per recipient, every frame sent
// as the events frameEvents reads from it, and each items frame's seqList.
type recorder struct {
	mu     sync.Mutex
	got    map[string][]string
	frames map[string][]string
}

func newRecorder() *recorder {
	return &recorder{got: map[string][]string{}, frames: map[string][]string{}}
}

func (r *recorder) ID() string                { return "host" }
func (r *recorder) SetHandler(fabric.Handler) {}
func (r *recorder) Close() error              { return nil }

func (r *recorder) Send(to string, payload any, _ int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got[to] = append(r.got[to], frameEvents(payload)...)
	if m, ok := payload.(*MsgItems); ok {
		r.frames[to] = append(r.frames[to], seqList(runOf(m.Items, m.segs)))
	}
	return nil
}

// take returns the MsgItems frames sent since the last take, per recipient.
func (r *recorder) take() map[string][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	frames := r.frames
	r.frames = map[string][]string{}
	return frames
}

// frameEvents flattens a frame into what its recipient learns from it, in
// order: an item per item, whatever frame carries it, and one event per
// control frame.
func frameEvents(payload any) []string {
	var ev []string
	var items []Item
	switch m := payload.(type) {
	case *MsgJoinAck:
		ev, items = []string{fmt.Sprintf("ack %v %v", m.Mode, m.Members)}, runOf(m.Backlog, m.segs)
	case *MsgItems:
		items = runOf(m.Items, m.segs)
	case *MsgMode:
		ev = []string{"mode " + m.Mode.String()}
	case *MsgPresence:
		ev = []string{fmt.Sprintf("presence %s %v", m.From, m.State)}
	default:
		ev = []string{fmt.Sprintf("unexpected %T", payload)}
	}
	for _, it := range items {
		ev = append(ev, fmt.Sprintf("item %d/%s/%s/%s", it.Seq, it.From, it.Kind, it.Body))
	}
	return ev
}

// joinAll joins ids to the unnamed document, all Active.
func joinAll(h *Host, ids ...string) {
	for _, id := range ids {
		h.Receive(id, &MsgJoin{From: id, State: Active})
	}
}

// TestOTCommitRidesWithSubmission is the daemon's OT shape: OnItem answers
// every participant item with a PostLocal commit. Each member that did not
// submit gets the submission and its commit in one frame, the submitter
// gets the commit alone, and Pushes still counts items: 3 + 4.
func TestOTCommitRidesWithSubmission(t *testing.T) {
	rec := newRecorder()
	h := NewHost(rec, Synchronous, func() time.Duration { return 0 })
	h.OnItem = func(doc string, it Item) {
		if it.From != HostAuthor {
			h.Host(doc).PostLocal("commit", "c")
		}
	}
	ids := []string{"p0", "p1", "p2", "p3"}
	joinAll(h, ids...)
	rec.take()
	for i, poster := range ids {
		before := h.Host("").Stats().Pushes
		h.Receive(poster, &MsgPost{From: poster, Kind: "op", Body: "o"})
		n := 2*i + 1
		got := rec.take()
		for _, id := range ids {
			want := []string{fmt.Sprintf("[%d/%s %d/%s]", n, poster, n+1, HostAuthor)}
			if id == poster {
				want = []string{fmt.Sprintf("[%d/%s]", n+1, HostAuthor)}
			}
			if !reflect.DeepEqual(got[id], want) {
				t.Errorf("op %d: %s got frames %v, want %v", i, id, got[id], want)
			}
		}
		if d := h.Host("").Stats().Pushes - before; d != 7 {
			t.Errorf("op %d: Pushes rose by %d, want 7", i, d)
		}
	}
}

// TestFilteredPushIsNotShared: OnItem for p0's item feeds p1's post into the
// host, so p1 is owed the same range as p2 and p3 — but one item of it is
// its own. p1's push leaves that item out, and p2 and p3, who share a push,
// still get both.
func TestFilteredPushIsNotShared(t *testing.T) {
	rec := newRecorder()
	h := NewHost(rec, Synchronous, func() time.Duration { return 0 })
	h.OnItem = func(doc string, it Item) {
		if it.From == "p0" {
			h.Receive("p1", &MsgPost{From: "p1", Kind: "reply", Body: "r"})
		}
	}
	joinAll(h, "p0", "p1", "p2", "p3")
	rec.take()
	h.Receive("p0", &MsgPost{From: "p0", Kind: "chat", Body: "x"})
	want := map[string][]string{
		"p0": {"[2/p1]"},
		"p1": {"[1/p0]"},
		"p2": {"[1/p0 2/p1]"},
		"p3": {"[1/p0 2/p1]"},
	}
	if got := rec.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("frames %v, want %v", got, want)
	}
}

// TestRefusedJoinOpensNothing: a join the document would drop — forged (its
// From is not the sender) or in HostAuthor's '!' namespace — does not open
// the document it names.
func TestRefusedJoinOpensNothing(t *testing.T) {
	h := NewHost(nullEndpoint{}, Synchronous, func() time.Duration { return 0 })
	h.Receive("mallory", &MsgJoin{Doc: "d1", From: "alice", State: Active})
	h.Receive("!x", &MsgJoin{Doc: "d2", From: "!x", State: Active})
	if docs := h.Docs(); len(docs) != 0 {
		t.Errorf("refused joins opened %v", docs)
	}
	h.Receive("alice", &MsgJoin{Doc: "d1", From: "alice", State: Active})
	if docs := h.Docs(); !reflect.DeepEqual(docs, []string{"d1"}) {
		t.Errorf("a genuine join left Docs() = %v, want [d1]", docs)
	}
}

// sessionHost is what the model test drives: the real host's unnamed
// document, or the reference.
type sessionHost interface {
	Receive(from string, payload any)
	PostLocal(kind, body string)
	SetMode(mode Mode)
}

type realHost struct{ *Host }

func (h realHost) PostLocal(kind, body string) { h.Host.Host("").PostLocal(kind, body) }
func (h realHost) SetMode(mode Mode)           { h.Host.Host("").SetMode(mode) }

// perItemHost is the reference for the model test: the session's semantics
// with one push per item, sent the moment the item is logged — the host
// before pushes were sealed per drain — recording what each member hears.
// OnItem runs after the frames of the call that logged its item, in log
// order, and may call back in.
type perItemHost struct {
	mode   Mode
	log    []Item
	ids    []string
	parts  map[string]*partState
	pushes int
	got    map[string][]string
	onItem func(Item)
	due    []Item // logged items whose OnItem has not run
	busy   bool
}

func (r *perItemHost) send(to string, payload any) {
	r.got[to] = append(r.got[to], frameEvents(payload)...)
}

func (r *perItemHost) Receive(from string, payload any) {
	switch m := payload.(type) {
	case *MsgJoin:
		if m.From != from || strings.HasPrefix(from, "!") {
			break
		}
		p := r.parts[from]
		if p == nil {
			p = &partState{id: from}
			r.parts[from] = p
			r.ids = append(r.ids, from)
			slices.Sort(r.ids)
		}
		p.presence = m.State
		r.send(from, &MsgJoinAck{Mode: r.mode, Backlog: r.catchUp(p, m.Since), Members: r.ids})
		r.fanout(&MsgPresence{From: from, State: p.presence}, from)
	case *MsgPost:
		if m.From == from && r.parts[from] != nil {
			r.append(from, m.Kind, m.Body)
		}
	case *MsgPoll:
		if p := r.parts[from]; m.From == from && p != nil {
			r.send(from, &MsgItems{Items: r.catchUp(p, m.Since)})
		}
	case *MsgPresence:
		if p := r.parts[from]; m.From == from && p != nil {
			was := p.presence
			p.presence = m.State
			if r.mode == Synchronous && m.State == Active && was != Active {
				r.flush(p)
			}
			r.fanout(&MsgPresence{From: from, State: m.State}, from)
		}
	case *MsgLeave:
		if p := r.parts[from]; m.From == from && p != nil {
			p.presence = Offline
			r.fanout(&MsgPresence{From: from, State: Offline}, from)
		}
	}
	r.run()
}

func (r *perItemHost) PostLocal(kind, body string) {
	r.append(HostAuthor, kind, body)
	r.run()
}

func (r *perItemHost) SetMode(mode Mode) {
	if mode != r.mode {
		r.mode = mode
		r.fanout(&MsgMode{Mode: mode}, "")
		for _, id := range r.ids {
			if p := r.parts[id]; mode == Synchronous && p.presence == Active {
				r.flush(p)
			}
		}
	}
	r.run()
}

func (r *perItemHost) run() {
	if r.busy {
		return
	}
	r.busy = true
	for len(r.due) > 0 {
		it := r.due[0]
		r.due = r.due[1:]
		r.onItem(it)
	}
	r.busy = false
}

func (r *perItemHost) append(from, kind, body string) {
	it := Item{Seq: uint64(len(r.log)) + 1, From: from, Kind: kind, Body: body}
	r.log = append(r.log, it)
	r.due = append(r.due, it)
	if r.mode != Synchronous {
		return
	}
	for _, id := range r.ids {
		if p := r.parts[id]; p.presence == Active {
			if id != from {
				r.pushes++
				r.send(id, &MsgItems{Items: []Item{it}})
			}
			p.acked = it.Seq
		}
	}
}

func (r *perItemHost) catchUp(p *partState, since uint64) []Item {
	p.acked = uint64(len(r.log))
	var out []Item
	for _, it := range r.log[min(since, p.acked):] {
		if it.From != p.id {
			out = append(out, it)
		}
	}
	return out
}

func (r *perItemHost) flush(p *partState) {
	if missed := r.catchUp(p, p.acked); len(missed) > 0 {
		r.send(p.id, &MsgItems{Items: missed})
	}
}

func (r *perItemHost) fanout(payload any, except string) {
	for _, id := range r.ids {
		if id != except && r.parts[id].presence != Offline {
			r.send(id, payload)
		}
	}
}

// modelScript is a seeded mix of everything that reaches a document: joins
// and rejoins from any point, posts (some answered from OnItem, see
// onItemAct), leaves, presence changes, polls, host posts, mode switches and
// forged posts.
func modelScript(seed int64, ops int) []func(sessionHost) {
	rng := rand.New(rand.NewSource(seed))
	ids := []string{"a", "b", "c", "d", "e"}
	script := []func(sessionHost){func(h sessionHost) { h.Receive("a", &MsgJoin{From: "a", State: Active}) }}
	for i := 1; i < ops; i++ {
		id, other := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		since := uint64(rng.Intn(2*i + 1))
		body := fmt.Sprint(i)
		var op func(sessionHost)
		switch k := rng.Intn(20); {
		case k < 8:
			kind := []string{"chat", "ot", "ot", "echo", "poke", "mode"}[rng.Intn(6)]
			op = func(h sessionHost) { h.Receive(id, &MsgPost{From: id, Kind: kind, Body: body}) }
		case k < 10:
			state := []Presence{Active, Active, Away}[rng.Intn(3)]
			op = func(h sessionHost) { h.Receive(id, &MsgJoin{From: id, Since: since, State: state}) }
		case k < 12:
			state := []Presence{Active, Away, Offline}[rng.Intn(3)]
			op = func(h sessionHost) { h.Receive(id, &MsgPresence{From: id, State: state}) }
		case k < 13:
			op = func(h sessionHost) { h.Receive(id, &MsgLeave{From: id}) }
		case k < 15:
			op = func(h sessionHost) { h.Receive(id, &MsgPoll{From: id, Since: since}) }
		case k < 17:
			op = func(h sessionHost) { h.PostLocal("note", body) }
		case k < 18:
			mode := []Mode{Synchronous, Asynchronous}[rng.Intn(2)]
			op = func(h sessionHost) { h.SetMode(mode) }
		default:
			op = func(h sessionHost) { h.Receive(other, &MsgPost{From: id, Kind: "chat", Body: "forged"}) }
		}
		script = append(script, op)
	}
	return script
}

// onItemAct is the model's OnItem, which reaches back into the host while
// the item's push is still owed: an "ot" item is answered by a host commit,
// an "echo" item by a post from the member its sequence number picks, a
// "poke" item by that member's presence change, poll or rejoin, and a "mode"
// item by a mode switch. What a member that never joined sends is dropped
// by both hosts.
func onItemAct(h sessionHost, it Item) {
	id := []string{"a", "b", "c", "d", "e"}[it.Seq%5]
	switch it.Kind {
	case "ot":
		h.PostLocal("commit", "c"+it.Body)
	case "echo":
		h.Receive(id, &MsgPost{From: id, Kind: "chat", Body: "re" + it.Body})
	case "poke":
		switch it.Seq % 3 {
		case 0:
			h.Receive(id, &MsgPresence{From: id, State: []Presence{Active, Away}[it.Seq/3%2]})
		case 1:
			h.Receive(id, &MsgPoll{From: id, Since: it.Seq / 2})
		default:
			h.Receive(id, &MsgJoin{From: id, Since: it.Seq / 2, State: Active})
		}
	case "mode":
		h.SetMode([]Mode{Synchronous, Asynchronous}[it.Seq%2])
	}
}

// TestPushesMatchPerItemModel holds the host to the per-item reference over
// seeded scripts: every member hears the same items and control frames, in
// the same order, however the items are grouped into frames, and Pushes
// counts the same items. Each script's log outgrows the log's first chunk,
// so pushes, join acks, polls and flushes read runs across a chunk edge.
func TestPushesMatchPerItemModel(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		script := modelScript(seed, 500)
		rec := newRecorder()
		h := NewHost(rec, Synchronous, func() time.Duration { return 0 })
		live := realHost{h}
		h.OnItem = func(_ string, it Item) { onItemAct(live, it) }
		ref := &perItemHost{mode: Synchronous, parts: map[string]*partState{}, got: map[string][]string{}}
		ref.onItem = func(it Item) { onItemAct(ref, it) }
		for _, op := range script {
			op(live)
			op(ref)
		}
		for _, id := range ref.ids {
			if got, want := rec.got[id], ref.got[id]; !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d: %s heard %d events, want %d; first difference at %d: got %q, want %q",
					seed, id, len(got), len(want), i, at(got, i), at(want, i))
			}
		}
		if got := h.Host("").Stats().Pushes; got != ref.pushes {
			t.Errorf("seed %d: Pushes = %d, want %d", seed, got, ref.pushes)
		}
		if n := h.Host("").LogLen(); n <= chunklog.Size {
			t.Errorf("seed %d: the log holds %d items, within its first chunk of %d", seed, n, chunklog.Size)
		}
	}
}

func at(ev []string, i int) string {
	if i < len(ev) {
		return ev[i]
	}
	return "(end)"
}
