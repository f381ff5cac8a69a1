package session

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fabric"
)

// Client is a session participant endpoint. It claims its endpoint's
// handler at construction; the On* callbacks run outside the internal lock
// and may call back into the client.
type Client struct {
	ep   fabric.Endpoint
	host string
	doc  string // document key; "" is the unnamed document

	// mu guards everything below, out included: the On* callbacks due are
	// queued on out while mu is held, and out.Drain(&c.mu) runs them with
	// it released.
	mu  sync.Mutex
	out *fabric.Outbox

	joined  bool
	mode    Mode
	lastSeq uint64

	// OnItem receives session items (pushed or polled), in order.
	OnItem func(it Item)
	// OnPresence observes other participants' presence changes.
	OnPresence func(user string, p Presence)
	// OnJoined fires when the join acknowledgement (with backlog) arrives.
	OnJoined func(mode Mode, members []string)
}

// NewClientForDoc creates a client bound to document doc ("" is the unnamed
// document) on the named host, claiming the endpoint's handler. Outgoing
// messages are stamped with doc; incoming messages stamped for other
// documents are ignored, so several documents can share a host endpoint
// without cross-talk.
func NewClientForDoc(ep fabric.Endpoint, host, doc string) *Client {
	c := &Client{ep: ep, host: host, doc: doc, mode: Synchronous}
	// An item — the push hot path — is queued as a pointer into the
	// received message, which receivers only read; mode, presence and
	// joined notifications are queued calls.
	c.out = fabric.NewOutbox(ep, func(it any, _ uint64) { c.OnItem(*it.(*Item)) })
	ep.SetHandler(func(from string, payload any, size int) {
		c.Receive(from, payload)
	})
	return c
}

// ID returns the client's identifier.
func (c *Client) ID() string { return c.ep.ID() }

// Joined reports whether the join handshake completed.
func (c *Client) Joined() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.joined
}

// Mode returns the last known session mode.
func (c *Client) Mode() Mode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// LastSeq returns the highest item sequence number seen.
func (c *Client) LastSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSeq
}

// Join requests (re)admission, asking for replay of anything after the last
// item this client saw.
func (c *Client) Join(now time.Duration) error {
	if c.host == "" {
		return ErrNoHost
	}
	c.mu.Lock()
	since := c.lastSeq
	c.mu.Unlock()
	return c.ep.Send(c.host, &MsgJoin{Doc: c.doc, From: c.ID(), Since: since, State: Active}, 64)
}

// Post submits an item to the session.
func (c *Client) Post(kind, body string, now time.Duration) error {
	if !c.Joined() {
		return fmt.Errorf("%w: %s", ErrNotJoined, c.ID())
	}
	return c.ep.Send(c.host, &MsgPost{Doc: c.doc, From: c.ID(), Kind: kind, Body: body}, len(body)+64)
}

// Poll fetches items posted since the client last saw one (the
// asynchronous-mode pull path).
func (c *Client) Poll(now time.Duration) error {
	c.mu.Lock()
	joined, since := c.joined, c.lastSeq
	c.mu.Unlock()
	if !joined {
		return fmt.Errorf("%w: %s", ErrNotJoined, c.ID())
	}
	return c.ep.Send(c.host, &MsgPoll{Doc: c.doc, From: c.ID(), Since: since}, 64)
}

// SetPresence announces a presence change.
func (c *Client) SetPresence(p Presence, now time.Duration) error {
	if !c.Joined() {
		return fmt.Errorf("%w: %s", ErrNotJoined, c.ID())
	}
	return c.ep.Send(c.host, &MsgPresence{Doc: c.doc, From: c.ID(), State: p}, 64)
}

// Leave departs the session (items continue to queue server-side and replay
// on rejoin).
func (c *Client) Leave(now time.Duration) error {
	c.mu.Lock()
	if !c.joined {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotJoined, c.ID())
	}
	c.joined = false
	c.mu.Unlock()
	return c.ep.Send(c.host, &MsgLeave{Doc: c.doc, From: c.ID()}, 64)
}

// Receive ingests a wire message. NewClientForDoc wires the endpoint's
// handler here; tests may call it directly. Only the host speaks for the
// session: a frame from any other sender (a participant's listener accepts
// any local peer) or for another document is not ours.
func (c *Client) Receive(from string, payload any) {
	if from != c.host || DocOf(payload) != c.doc {
		return
	}
	c.mu.Lock()
	switch m := payload.(type) {
	case *MsgJoinAck:
		c.joined, c.mode = true, m.Mode
		if onJoined := c.OnJoined; onJoined != nil {
			c.out.Call(func() { onJoined(m.Mode, m.Members) })
		}
		c.deliver(m.Backlog, m.segs)
	case *MsgItems:
		c.deliver(m.Items, m.segs)
	case *MsgMode:
		c.mode = m.Mode
	case *MsgPresence:
		if onPresence := c.OnPresence; onPresence != nil {
			c.out.Call(func() { onPresence(m.From, m.State) })
		}
	}
	c.out.Drain(&c.mu)
}

// deliver queues the items of a run (items, or segs when it is set, which
// is the host's log) that this client has not seen yet, in order.
//
//cscw:hotpath
func (c *Client) deliver(items []Item, segs *[][]Item) {
	run := [][]Item{items}
	if segs != nil {
		run = *segs
	}
	for _, seg := range run {
		for i := range seg {
			if seg[i].Seq <= c.lastSeq {
				continue // duplicate (e.g. rejoin replay racing a push)
			}
			c.lastSeq = seg[i].Seq
			if c.OnItem != nil {
				c.out.Deliver(&seg[i], 0)
			}
		}
	}
}
