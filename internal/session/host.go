package session

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chunklog"
	"repro/internal/fabric"
)

// HostStats aggregates host activity.
type HostStats struct {
	Posts        int
	Pushes       int // items pushed synchronously: items, not frames
	FlushServes  int // items flushed by a mode transition
	ModeSwitches int
}

type partState struct {
	id       string
	presence Presence
	acked    uint64 // highest sequence number delivered or owed (push or poll)
	owed     bool   // on docHost.owed: (from, acked] is due in its next push
	from     uint64
}

// Host is the session coordinator for every document on one endpoint. It
// claims the endpoint's handler at construction, demultiplexes traffic by
// each message's Doc key, and opens a document on the first join for its key
// (the unnamed key "" included). Each document keeps its own log, members
// and lock; h.mu guards only the document map and the rejected count, so it
// is safe over netsim and over concurrent real transports alike. The OnItem
// callback runs outside every lock.
type Host struct {
	ep    fabric.Endpoint
	mode  Mode // what a newly opened document starts in
	clock func() time.Duration
	// OnItem observes every accepted post under its document's key (the
	// daemon and the harnesses tap this). It is read on every post: set it
	// before traffic flows.
	OnItem func(doc string, it Item)
	// Owns, when set, confines the host to the documents it returns true
	// for (internal/daemon's shard placement): traffic for documents placed
	// elsewhere is counted and dropped rather than answered, which would fork
	// the document's log. It is read on every message, like OnItem.
	Owns func(doc string) bool

	mu       sync.Mutex
	docs     map[string]*docHost
	rejected uint64
}

// NewHost creates a session host on the given endpoint and claims its
// handler. Every document it opens starts in mode; clock supplies the
// current (virtual or real) time for item stamping.
func NewHost(ep fabric.Endpoint, mode Mode, clock func() time.Duration) *Host {
	h := &Host{ep: ep, mode: mode, clock: clock, docs: make(map[string]*docHost)}
	ep.SetHandler(func(from string, payload any, size int) {
		h.Receive(from, payload)
	})
	return h
}

// Receive ingests a wire message from the transport sender from. NewHost
// wires the endpoint's handler here; tests may call it directly. The
// document's own receive runs outside h.mu: it can queue endpoint sends, and
// those must never happen under a lock (TestNoSendUnderSessionLocks).
func (h *Host) Receive(from string, payload any) {
	key := DocOf(payload)
	if h.Owns != nil && !h.Owns(key) {
		h.mu.Lock()
		h.rejected++
		h.mu.Unlock()
		return
	}
	h.mu.Lock()
	d, ok := h.docs[key]
	if !ok {
		// Only a join the document would accept opens it: posts or polls
		// for an unknown document are from participants who never joined,
		// and would be dropped anyway — creating state for them would let
		// strangers (or forgers) allocate documents.
		if m, join := payload.(*MsgJoin); !join || m.From != from || strings.HasPrefix(from, "!") {
			h.mu.Unlock()
			return
		}
		d = newDocHost(h, key)
		h.docs[key] = d
	}
	h.mu.Unlock()
	d.receive(from, payload)
}

// Host returns the state of document doc, or nil if no participant has
// joined it yet.
func (h *Host) Host(doc string) *docHost {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.docs[doc]
}

// Docs returns the open documents, sorted.
func (h *Host) Docs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.docs))
	for doc := range h.docs {
		out = append(out, doc)
	}
	sort.Strings(out)
	return out
}

// Rejected counts messages dropped because their document is owned by
// another shard's host.
func (h *Host) Rejected() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rejected
}

// MultiHost is Host under its old name, and NewMultiHost NewHost with Owns
// set. Both stay only because the frozen benchmark harness names them;
// ROADMAP item 1 deletes them.
type MultiHost = Host

// NewMultiHost is NewHost followed by setting Owns to owns.
func NewMultiHost(ep fabric.Endpoint, mode Mode, clock func() time.Duration, owns func(doc string) bool) *Host {
	h := NewHost(ep, mode, clock)
	h.Owns = owns
	return h
}

// docHost is one document's session: its item log, members and presence.
// It guards all of that with its own mutex, and every entry point and
// accessor is one Do on its outbox, which queues every send and OnItem call
// under the mutex and performs them after it is released. A synchronous
// push is not queued when its item is logged: the item extends each
// recipient's owed range, and a seal queued behind the item's OnItem call
// turns every owed range into one frame, so an item that OnItem posts (an
// OT commit) rides with the item it answers. Every other frame seals what
// is owed first. Queued sends run in order, preserving the per-peer FIFO
// the clients rely on; a failed one (a partition, a disconnected mobile)
// surfaces as a missed push, which the poll path recovers.
type docHost struct {
	host *Host
	key  string

	mu  sync.Mutex
	out *fabric.Outbox

	mode Mode
	// log holds items 1..seq at indexes 0..seq-1, in fixed chunks, so that
	// logging an item never copies the ones before it.
	log   chunklog.Log[Item]
	seq   uint64
	parts map[string]*partState
	// ids is the joined participants, sorted. A join replaces the slice
	// rather than editing it, because every MsgJoinAck sent shares it.
	ids   []string
	owed  []*partState // members due a push, in the order they became due
	stats HostStats
	// sealOwed is the queued seal: a Do that seals what is owed, run as an
	// effect; it is built once, so queueing it costs no allocation.
	sealOwed func()
}

func newDocHost(h *Host, key string) *docHost {
	d := &docHost{host: h, key: key, mode: h.mode, parts: make(map[string]*partState)}
	// A logged item is never modified, so the outbox can hand OnItem a
	// pointer into the log. OnItem is set before traffic flows.
	d.out = fabric.NewOutbox(&d.mu, h.ep, func(it any, _ uint64) {
		h.OnItem(key, *it.(*Item))
	})
	d.sealOwed = func() { d.out.Do(d.seal) }
	return d
}

// Mode returns the document's current session mode.
func (d *docHost) Mode() (m Mode) {
	d.out.Do(func() { m = d.mode })
	return m
}

// Stats returns accumulated statistics.
func (d *docHost) Stats() (s HostStats) {
	d.out.Do(func() { s = d.stats })
	return s
}

// LogLen returns the number of items in the document's log.
func (d *docHost) LogLen() (n int) {
	d.out.Do(func() { n = int(d.seq) })
	return n
}

// Members returns joined participants (any presence), sorted.
func (d *docHost) Members() (ids []string) {
	d.out.Do(func() { ids = slices.Clone(d.ids) })
	return ids
}

// PresenceOf returns a participant's presence (Offline if never joined).
func (d *docHost) PresenceOf(id string) Presence {
	pr := Offline
	d.out.Do(func() {
		if p, ok := d.parts[id]; ok {
			pr = p.presence
		}
	})
	return pr
}

// receive ingests one message for this document. The author is the
// transport sender: a message whose From names anyone else is dropped, so no
// peer can post, poll or leave as someone else.
func (d *docHost) receive(from string, payload any) {
	d.out.Do(func() {
		switch m := payload.(type) {
		case *MsgJoin:
			if m.From == from {
				d.onJoin(*m)
			}
		case *MsgPost:
			if m.From == from {
				d.onPost(*m)
			}
		case *MsgPoll:
			if m.From == from {
				d.onPoll(*m)
			}
		case *MsgPresence:
			if m.From == from {
				d.onPresence(*m)
			}
		case *MsgLeave:
			if m.From == from {
				d.onLeave(*m)
			}
		}
	})
}

func (d *docHost) onJoin(m MsgJoin) {
	if strings.HasPrefix(m.From, "!") {
		return // HostAuthor's namespace: such a member's items would never be delivered
	}
	p, ok := d.parts[m.From]
	if !ok {
		p = &partState{id: m.From}
		d.parts[m.From] = p
		i, _ := slices.BinarySearch(d.ids, m.From)
		d.ids = slices.Insert(slices.Clip(d.ids), i, m.From)
	}
	p.presence = max(m.State, Active) // a join that names no state is Active
	backlog, n, _ := d.catchUp(p, m.Since)
	ack := &MsgJoinAck{Doc: d.key, Mode: d.mode, Backlog: backlog.Items, Members: d.ids, segs: backlog.segs}
	d.out.Queue(m.From, ack, n*32+64)
	// Tell the others someone arrived (presence awareness).
	d.fanout(&MsgPresence{Doc: d.key, From: m.From, State: p.presence}, m.From)
}

func (d *docHost) onLeave(m MsgLeave) {
	p, ok := d.parts[m.From]
	if !ok {
		return // a stranger's leave: there is no departure to announce
	}
	p.presence = Offline
	d.fanout(&MsgPresence{Doc: d.key, From: m.From, State: Offline}, m.From)
}

func (d *docHost) onPresence(m MsgPresence) {
	p, ok := d.parts[m.From]
	if !ok {
		return
	}
	was := p.presence
	p.presence = m.State
	// Returning to Active in a synchronous session replays the items posted
	// while away, before any new push: resumed pushes would otherwise move
	// the participant's cursor past the interim items, losing them for good
	// (clients poll from their highest seen sequence number).
	if d.mode == Synchronous && m.State == Active && was != Active {
		d.flush(p)
	}
	d.fanout(&MsgPresence{Doc: d.key, From: m.From, State: m.State}, m.From)
}

func (d *docHost) onPost(m MsgPost) {
	if _, ok := d.parts[m.From]; !ok {
		return // posts from strangers are dropped
	}
	d.appendItem(m.From, m.Kind, m.Body)
}

// HostAuthor is the author id of items the host posts itself (PostLocal).
// Participant ids never start with '!' (onJoin ignores such a join), so host
// items are pushed to every participant and are never filtered as someone's
// own.
const HostAuthor = "!host"

// PostLocal appends an item authored by the host itself and propagates it
// exactly like an accepted participant post — daemon-side convergence
// engines publish OT commits into the session log this way.
func (d *docHost) PostLocal(kind, body string) {
	d.out.Do(func() { d.appendItem(HostAuthor, kind, body) })
}

// appendItem logs one item and, in a synchronous session, makes every
// other Active member owed it. The first item owed queues sealOwed behind its
// OnItem call, so an item posted from inside that call joins the push.
// Callers hold d.mu.
func (d *docHost) appendItem(from, kind, body string) {
	d.seq++
	it := d.log.Append(Item{Seq: d.seq, From: from, Kind: kind, Body: body, At: d.host.clock()})
	d.stats.Posts++
	if d.host.OnItem != nil {
		d.out.Deliver(it, 0)
	}
	if d.mode != Synchronous {
		return
	}
	owing := len(d.owed) > 0
	for _, id := range d.ids {
		p := d.parts[id]
		if p.presence != Active {
			continue
		}
		// The poster's own item counts as delivered to it — but only while
		// Active, when everything before it was pushed too. Advancing an
		// away poster's cursor would skip the interim items out of its
		// return-to-active flush.
		if id != from {
			d.stats.Pushes++
			if !p.owed {
				p.owed, p.from = true, p.acked
				d.owed = append(d.owed, p)
			}
		}
		p.acked = d.seq
	}
	if !owing && len(d.owed) > 0 {
		d.out.Call(d.sealOwed)
	}
}

// seal queues one push per owed member: the run of its range that it did
// not post. Members owed the same range, none of it their own, share one
// push, which receivers only read. Callers hold d.mu.
func (d *docHost) seal() {
	var shared *MsgItems // the last push of a whole range, (from, to]
	var from, to uint64
	for _, p := range d.owed {
		p.owed = false
		r, n, body := d.run(p, p.from, p.acked)
		whole := n == int(p.acked-p.from)
		push := shared
		if !whole || shared == nil || p.from != from || p.acked != to {
			push = &MsgItems{Doc: d.key, Items: r.Items, segs: r.segs} // r stays on the stack
			if whole {
				shared, from, to = push, p.from, p.acked
			}
		}
		d.out.Queue(p.id, push, 64+body)
	}
	clear(d.owed)
	d.owed = d.owed[:0]
}

func (d *docHost) onPoll(m MsgPoll) {
	p, ok := d.parts[m.From]
	if !ok {
		return
	}
	items, n, _ := d.catchUp(p, m.Since)
	d.out.Queue(m.From, &items, n*32+64)
}

// SetMode switches the document's session mode. An asynchronous-to-
// synchronous switch flushes every present participant's backlog so nobody
// resumes live work with stale state — the seamless transition.
//
// The MsgMode it sends its clients exists only in-process (netsim and
// SimEndpoint worlds): the wire codec does not register it, so on a
// fabric.FromTransport endpoint each announcement is a counted drop of the
// host's endpoint (fabric.DroppedOf) and the clients keep the old mode.
// sessiond's mode is fixed at start.
func (d *docHost) SetMode(mode Mode) {
	d.out.Do(func() {
		if mode == d.mode {
			return
		}
		d.mode = mode
		d.stats.ModeSwitches++
		d.fanout(&MsgMode{Doc: d.key, Mode: mode}, "")
		if mode == Synchronous {
			for _, id := range d.ids {
				if p := d.parts[id]; p.presence == Active {
					d.flush(p)
				}
			}
		}
	})
}

// catchUp is the one catch-up path, for a join, a poll and a flush: it
// seals what is owed, so no push falls behind the frame it returns for,
// then returns the run of the items after since that p did not author (see
// run) and moves p's cursor to the head of the log.
func (d *docHost) catchUp(p *partState, since uint64) (MsgItems, int, int) {
	d.seal()
	p.acked = d.seq
	return d.run(p, min(since, d.seq), d.seq)
}

// run returns, as a push, the items in (since, upto] that p did not author
// (a member is never sent its own items), read in place (chunklog.Log.Runs),
// never copied: one segment is Items, several are segs, and they may be read
// after d.mu is released. n and body count the items and their bodies' bytes.
//
//cscw:hotpath
func (d *docHost) run(p *partState, since, upto uint64) (m MsgItems, n, body int) {
	m.Doc = d.key
	segs := 0
	d.log.Runs(int(since), int(upto), p.wrote, func(s []Item) {
		m.Items, n, segs = s, n+len(s), segs+1
		for _, it := range s {
			body += len(it.Body)
		}
	})
	if segs > 1 {
		all := make([][]Item, 0, segs)
		d.log.Runs(int(since), int(upto), p.wrote, func(s []Item) { all = append(all, s) })
		m.Items, m.segs = nil, &all
	}
	return m, n, body
}

func (p *partState) wrote(it Item) bool { return it.From == p.id }

// flush pushes p what it missed since its cursor, if anything: on a return
// to Active, or when the session turns synchronous.
func (d *docHost) flush(p *partState) {
	if missed, n, _ := d.catchUp(p, p.acked); n > 0 {
		d.stats.FlushServes += n
		d.out.Queue(p.id, &MsgItems{Doc: d.key, Items: missed.Items, segs: missed.segs}, n*32+64)
	}
}

func (d *docHost) fanout(payload any, except string) {
	d.seal()
	for _, id := range d.ids {
		p := d.parts[id]
		if id == except || p.presence == Offline {
			continue
		}
		d.out.Queue(id, payload, 64)
	}
}
