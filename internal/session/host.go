package session

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fabric"
)

// HostStats aggregates host activity.
type HostStats struct {
	Posts        int
	Pushes       int // items pushed synchronously
	PollServes   int // items served to polls
	FlushServes  int // items flushed by a mode transition
	ModeSwitches int
}

type partState struct {
	id       string
	presence Presence
	acked    uint64 // highest sequence number delivered (push or poll)
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
// those must never happen under a lock (the block-lock discipline).
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
		// Only a join opens a document: posts or polls for an unknown
		// document are from participants who never joined, and would be
		// dropped anyway — creating state for them would let strangers
		// allocate documents.
		if _, join := payload.(*MsgJoin); !join {
			h.mu.Unlock()
			return
		}
		d = &docHost{host: h, key: key, mode: h.mode, parts: make(map[string]*partState)}
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
// It guards all of that with its own mutex and queues every callback and
// send to run after the mutex is released.
type docHost struct {
	host *Host
	key  string

	mu       sync.Mutex
	cbs      []func()
	flushing bool

	mode  Mode
	log   []Item
	seq   uint64
	parts map[string]*partState
	stats HostStats
}

// runCallbacks is called with d.mu held and returns with it released; see
// group.Member.runCallbacks for the pattern.
func (d *docHost) runCallbacks() {
	if d.flushing {
		d.mu.Unlock()
		return
	}
	d.flushing = true
	for len(d.cbs) > 0 {
		batch := d.cbs
		d.cbs = nil
		d.mu.Unlock()
		for _, fn := range batch {
			fn()
		}
		d.mu.Lock()
	}
	d.flushing = false
	d.mu.Unlock()
}

// Mode returns the document's current session mode.
func (d *docHost) Mode() Mode {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mode
}

// Stats returns accumulated statistics.
func (d *docHost) Stats() HostStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// LogLen returns the number of items in the document's log.
func (d *docHost) LogLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.log)
}

// Members returns joined participants (any presence), sorted.
func (d *docHost) Members() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.members()
}

func (d *docHost) members() []string {
	out := make([]string, 0, len(d.parts))
	for id := range d.parts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// PresenceOf returns a participant's presence (Offline if never joined).
func (d *docHost) PresenceOf(id string) Presence {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.parts[id]; ok {
		return p.presence
	}
	return Offline
}

// receive ingests one message for this document. The author is the
// transport sender: a message whose From names anyone else is dropped, so no
// peer can post, poll or leave as someone else.
func (d *docHost) receive(from string, payload any) {
	d.mu.Lock()
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
	d.runCallbacks()
}

func (d *docHost) onJoin(m MsgJoin) {
	if strings.HasPrefix(m.From, "!") {
		return // HostAuthor's namespace: such a member's items would never be delivered
	}
	p, ok := d.parts[m.From]
	if !ok {
		p = &partState{id: m.From}
		d.parts[m.From] = p
	}
	p.presence = m.State
	if p.presence == 0 {
		p.presence = Active
	}
	backlog := withoutFrom(d.itemsAfter(m.Since), m.From)
	p.acked = d.seq
	ack := &MsgJoinAck{Doc: d.key, Mode: d.mode, Backlog: backlog, Members: d.members()}
	d.send(m.From, ack, len(backlog)*32+64)
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
		missed := withoutFrom(d.itemsAfter(p.acked), m.From)
		if len(missed) > 0 {
			d.stats.FlushServes += len(missed)
			d.send(m.From, &MsgItems{Doc: d.key, Items: missed}, len(missed)*32+64)
		}
		p.acked = d.seq
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
	d.mu.Lock()
	d.appendItem(HostAuthor, kind, body)
	d.runCallbacks()
}

// appendItem logs one item and pushes it per the session mode. Callers
// hold d.mu.
func (d *docHost) appendItem(from, kind, body string) {
	d.seq++
	it := Item{Seq: d.seq, From: from, Kind: kind, Body: body, At: d.host.clock()}
	d.log = append(d.log, it)
	d.stats.Posts++
	if onItem := d.host.OnItem; onItem != nil {
		d.cbs = append(d.cbs, func() { onItem(d.key, it) })
	}
	if d.mode != Synchronous {
		return
	}
	for _, id := range d.members() {
		p := d.parts[id]
		if p.presence != Active || id == from {
			// The poster's own item counts as delivered to it — but only
			// while Active, when everything before it was pushed too.
			// Advancing an away poster's cursor would skip the interim
			// items out of its return-to-active flush.
			if id == from && p.presence == Active {
				p.acked = it.Seq
			}
			continue
		}
		d.stats.Pushes++
		p.acked = it.Seq
		d.send(id, &MsgItems{Doc: d.key, Items: []Item{it}}, len(it.Body)+64)
	}
}

func (d *docHost) onPoll(m MsgPoll) {
	p, ok := d.parts[m.From]
	if !ok {
		return
	}
	items := withoutFrom(d.itemsAfter(m.Since), m.From)
	d.stats.PollServes += len(items)
	p.acked = d.seq
	d.send(m.From, &MsgItems{Doc: d.key, Items: items}, len(items)*32+64)
}

// SetMode switches the document's session mode. An asynchronous-to-
// synchronous switch flushes every present participant's backlog so nobody
// resumes live work with stale state — the seamless transition.
func (d *docHost) SetMode(mode Mode) {
	d.mu.Lock()
	if mode == d.mode {
		d.mu.Unlock()
		return
	}
	d.mode = mode
	d.stats.ModeSwitches++
	d.fanout(&MsgMode{Doc: d.key, Mode: mode}, "")
	if mode == Synchronous {
		for _, id := range d.members() {
			p := d.parts[id]
			if p.presence != Active {
				continue
			}
			missed := withoutFrom(d.itemsAfter(p.acked), id)
			if len(missed) == 0 {
				p.acked = d.seq
				continue
			}
			d.stats.FlushServes += len(missed)
			p.acked = d.seq
			d.send(id, &MsgItems{Doc: d.key, Items: missed}, len(missed)*32+64)
		}
	}
	d.runCallbacks()
}

func (d *docHost) itemsAfter(since uint64) []Item {
	if since >= d.seq {
		return nil
	}
	// Sequence numbers are dense (1..seq), so index directly.
	start := int(since)
	if start > len(d.log) {
		start = len(d.log)
	}
	out := make([]Item, len(d.log)-start)
	copy(out, d.log[start:])
	return out
}

// withoutFrom filters out items authored by from: a participant's own items
// are never delivered back to it.
func withoutFrom(items []Item, from string) []Item {
	out := items[:0]
	for _, it := range items {
		if it.From != from {
			out = append(out, it)
		}
	}
	return out
}

func (d *docHost) fanout(payload any, except string) {
	for _, id := range d.members() {
		p := d.parts[id]
		if id == except || p.presence == Offline {
			continue
		}
		d.send(id, payload, 64)
	}
}

// send queues a delivery on the callback queue, so the actual endpoint
// Send runs after d.mu is released (a Send can block over a real
// transport; holding the lock across it invites distributed deadlock —
// cscwlint's block-lock rule enforces the discipline). Queued sends flush
// in order, preserving the per-peer FIFO the clients rely on.
func (d *docHost) send(to string, payload any, size int) {
	d.cbs = append(d.cbs, func() {
		// Transient send failures (partitions, disconnected mobiles) surface
		// as missed pushes; the poll path recovers them, so drop silently.
		_ = d.host.ep.Send(to, payload, size)
	})
}
