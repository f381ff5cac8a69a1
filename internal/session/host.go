package session

import (
	"sort"
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

// Host is the session coordinator. It claims its endpoint's handler at
// construction and guards all state with an internal mutex, so it is safe
// over netsim and over concurrent real transports alike; the OnItem
// callback runs outside the lock.
type Host struct {
	ep  fabric.Endpoint
	doc string // document key; "" is the unnamed (single-session) host

	mu       sync.Mutex
	cbs      []func()
	flushing bool

	mode  Mode
	log   []Item
	seq   uint64
	parts map[string]*partState
	clock func() time.Duration
	stats HostStats
	// OnItem observes every accepted post (the hyperdoc and experiment
	// layers tap this).
	OnItem func(Item)
}

// NewHost creates a session host on the given endpoint and claims its
// handler. clock supplies the current (virtual or real) time for item
// stamping.
func NewHost(ep fabric.Endpoint, mode Mode, clock func() time.Duration) *Host {
	h := NewDocHost(ep, mode, clock, "")
	ep.SetHandler(func(from string, payload any, size int) {
		h.Receive(from, payload)
	})
	return h
}

// NewDocHost creates a host for one named document WITHOUT claiming the
// endpoint's handler: the caller (normally a MultiHost demultiplexing many
// documents over one endpoint) owns the handler and feeds Receive. All
// outbound messages are stamped with doc; inbound messages for other
// documents are ignored.
func NewDocHost(ep fabric.Endpoint, mode Mode, clock func() time.Duration, doc string) *Host {
	return &Host{
		ep:    ep,
		doc:   doc,
		mode:  mode,
		parts: make(map[string]*partState),
		clock: clock,
	}
}

// Doc returns the document key this host serves ("" for the unnamed
// session).
func (h *Host) Doc() string { return h.doc }

// runCallbacks is called with h.mu held and returns with it released; see
// group.Member.runCallbacks for the pattern.
func (h *Host) runCallbacks() {
	if h.flushing {
		h.mu.Unlock()
		return
	}
	h.flushing = true
	for len(h.cbs) > 0 {
		batch := h.cbs
		h.cbs = nil
		h.mu.Unlock()
		for _, fn := range batch {
			fn()
		}
		h.mu.Lock()
	}
	h.flushing = false
	h.mu.Unlock()
}

// Mode returns the session's current mode.
func (h *Host) Mode() Mode {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mode
}

// Stats returns accumulated statistics.
func (h *Host) Stats() HostStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// LogLen returns the number of items in the session log.
func (h *Host) LogLen() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.log)
}

// Members returns joined participants (any presence), sorted.
func (h *Host) Members() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.members()
}

func (h *Host) members() []string {
	out := make([]string, 0, len(h.parts))
	for id := range h.parts {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// PresenceOf returns a participant's presence (Offline if never joined).
func (h *Host) PresenceOf(id string) Presence {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.parts[id]; ok {
		return p.presence
	}
	return Offline
}

// Receive ingests a wire message. NewHost wires the endpoint's handler
// here; tests may call it directly.
func (h *Host) Receive(from string, payload any) {
	if h.doc != "" && DocOf(payload) != h.doc {
		return // another document's traffic on a shared endpoint
	}
	h.mu.Lock()
	switch m := payload.(type) {
	case *MsgJoin:
		h.onJoin(*m)
	case *MsgPost:
		h.onPost(*m)
	case *MsgPoll:
		h.onPoll(*m)
	case *MsgPresence:
		h.onPresence(*m)
	case *MsgLeave:
		h.onLeave(*m)
	}
	h.runCallbacks()
}

func (h *Host) onJoin(m MsgJoin) {
	p, ok := h.parts[m.From]
	if !ok {
		p = &partState{id: m.From}
		h.parts[m.From] = p
	}
	p.presence = m.State
	if p.presence == 0 {
		p.presence = Active
	}
	backlog := withoutFrom(h.itemsAfter(m.Since), m.From)
	p.acked = h.seq
	ack := &MsgJoinAck{Mode: h.mode, Backlog: backlog, Members: h.members()}
	h.send(m.From, ack, len(backlog)*32+64)
	// Tell the others someone arrived (presence awareness).
	h.fanout(&MsgPresence{From: m.From, State: p.presence}, m.From)
}

func (h *Host) onLeave(m MsgLeave) {
	if p, ok := h.parts[m.From]; ok {
		p.presence = Offline
	}
	h.fanout(&MsgPresence{From: m.From, State: Offline}, m.From)
}

func (h *Host) onPresence(m MsgPresence) {
	p, ok := h.parts[m.From]
	if !ok {
		return
	}
	was := p.presence
	p.presence = m.State
	// Returning to Active in a synchronous session replays the items posted
	// while away, before any new push: resumed pushes would otherwise move
	// the participant's cursor past the interim items, losing them for good
	// (clients poll from their highest seen sequence number).
	if h.mode == Synchronous && m.State == Active && was != Active {
		missed := withoutFrom(h.itemsAfter(p.acked), m.From)
		if len(missed) > 0 {
			h.stats.FlushServes += len(missed)
			h.send(m.From, &MsgItems{Items: missed}, len(missed)*32+64)
		}
		p.acked = h.seq
	}
	h.fanout(&MsgPresence{From: m.From, State: m.State}, m.From)
}

func (h *Host) onPost(m MsgPost) {
	if _, ok := h.parts[m.From]; !ok {
		return // posts from strangers are dropped
	}
	h.appendItem(m.From, m.Kind, m.Body)
}

// HostAuthor is the author id of items the host posts itself (PostLocal).
// Participant ids never start with '!', so host items are pushed to every
// participant and are never filtered as someone's own.
const HostAuthor = "!host"

// PostLocal appends an item authored by the host itself and propagates it
// exactly like an accepted participant post — daemon-side convergence
// engines publish OT commits into the session log this way.
func (h *Host) PostLocal(kind, body string) {
	h.mu.Lock()
	h.appendItem(HostAuthor, kind, body)
	h.runCallbacks()
}

// appendItem logs one item and pushes it per the session mode. Callers
// hold h.mu.
func (h *Host) appendItem(from, kind, body string) {
	h.seq++
	it := Item{Seq: h.seq, From: from, Kind: kind, Body: body, At: h.clock()}
	h.log = append(h.log, it)
	h.stats.Posts++
	if h.OnItem != nil {
		onItem := h.OnItem
		h.cbs = append(h.cbs, func() { onItem(it) })
	}
	if h.mode != Synchronous {
		return
	}
	for _, id := range h.members() {
		p := h.parts[id]
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
		h.stats.Pushes++
		p.acked = it.Seq
		h.send(id, &MsgItems{Items: []Item{it}}, len(it.Body)+64)
	}
}

func (h *Host) onPoll(m MsgPoll) {
	p, ok := h.parts[m.From]
	if !ok {
		return
	}
	items := withoutFrom(h.itemsAfter(m.Since), m.From)
	h.stats.PollServes += len(items)
	p.acked = h.seq
	h.send(m.From, &MsgItems{Items: items}, len(items)*32+64)
}

// SetMode switches the session mode. An asynchronous-to-synchronous switch
// flushes every present participant's backlog so nobody resumes live work
// with stale state — the seamless transition.
func (h *Host) SetMode(mode Mode) {
	h.mu.Lock()
	if mode == h.mode {
		h.mu.Unlock()
		return
	}
	h.mode = mode
	h.stats.ModeSwitches++
	h.fanout(&MsgMode{Mode: mode}, "")
	if mode == Synchronous {
		for _, id := range h.members() {
			p := h.parts[id]
			if p.presence != Active {
				continue
			}
			missed := withoutFrom(h.itemsAfter(p.acked), id)
			if len(missed) == 0 {
				p.acked = h.seq
				continue
			}
			h.stats.FlushServes += len(missed)
			p.acked = h.seq
			h.send(id, &MsgItems{Items: missed}, len(missed)*32+64)
		}
	}
	h.runCallbacks()
}

func (h *Host) itemsAfter(since uint64) []Item {
	if since >= h.seq {
		return nil
	}
	// Sequence numbers are dense (1..seq), so index directly.
	start := int(since)
	if start > len(h.log) {
		start = len(h.log)
	}
	out := make([]Item, len(h.log)-start)
	copy(out, h.log[start:])
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

// stamp writes the host's document key into an outbound message. All host
// sends construct fresh pointer payloads, so mutating here is safe.
func (h *Host) stamp(payload any) {
	if h.doc == "" {
		return
	}
	switch m := payload.(type) {
	case *MsgJoinAck:
		m.Doc = h.doc
	case *MsgItems:
		m.Doc = h.doc
	case *MsgMode:
		m.Doc = h.doc
	case *MsgPresence:
		m.Doc = h.doc
	}
}

func (h *Host) fanout(payload any, except string) {
	for _, id := range h.members() {
		p := h.parts[id]
		if id == except || p.presence == Offline {
			continue
		}
		h.send(id, payload, 64)
	}
}

// send queues a delivery on the callback queue, so the actual endpoint
// Send runs after h.mu is released (a Send can block over a real
// transport; holding the lock across it invites distributed deadlock —
// cscwlint's block-lock rule enforces the discipline). Queued sends flush
// in order, preserving the per-peer FIFO the clients rely on.
func (h *Host) send(to string, payload any, size int) {
	h.stamp(payload)
	h.cbs = append(h.cbs, func() {
		// Transient send failures (partitions, disconnected mobiles) surface
		// as missed pushes; the poll path recovers them, so drop silently.
		_ = h.ep.Send(to, payload, size)
	})
}
