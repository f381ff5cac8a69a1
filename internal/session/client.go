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
	doc  string // document key; "" is the unnamed session

	// mu guards everything below. cbs queues the On* callbacks due while
	// mu is held; runCallbacks runs them with it released, and cbsSpare
	// recycles the previous flush's backing array, so a steady push stream
	// does not allocate a fresh queue per Receive.
	mu       sync.Mutex
	cbs      []cb
	cbsSpare []cb
	flushing bool

	joined  bool
	mode    Mode
	lastSeq uint64

	// OnItem receives session items (pushed or polled), in order.
	OnItem func(it Item)
	// OnMode observes session mode switches.
	OnMode func(m Mode)
	// OnPresence observes other participants' presence changes.
	OnPresence func(user string, p Presence)
	// OnJoined fires when the join acknowledgement (with backlog) arrives.
	OnJoined func(mode Mode, members []string)
}

// cb is one queued callback. An item — the push hot path — rides inline
// (onItem/item) rather than as a closure; mode, presence and joined
// notifications ride fn.
type cb struct {
	fn     func()
	onItem func(Item)
	item   Item
}

// NewClient creates a client on the given endpoint that will talk to the
// named host, claiming the endpoint's handler.
func NewClient(ep fabric.Endpoint, host string) *Client {
	return NewClientForDoc(ep, host, "")
}

// NewClientForDoc creates a client bound to one named document on a
// (possibly multi-document) host. Outgoing messages are stamped with doc;
// incoming messages stamped for other documents are ignored, so several
// documents can share a host endpoint without cross-talk.
func NewClientForDoc(ep fabric.Endpoint, host, doc string) *Client {
	c := &Client{ep: ep, host: host, doc: doc, mode: Synchronous}
	ep.SetHandler(func(from string, payload any, size int) {
		c.Receive(from, payload)
	})
	return c
}

// Doc returns the document key this client is bound to.
func (c *Client) Doc() string { return c.doc }

// runCallbacks is called with c.mu held and returns with it released; see
// group.Member.runCallbacks for the pattern.
func (c *Client) runCallbacks() {
	if c.flushing {
		c.mu.Unlock()
		return
	}
	c.flushing = true
	for len(c.cbs) > 0 {
		batch := c.cbs
		c.cbs = c.cbsSpare[:0]
		c.cbsSpare = nil
		c.mu.Unlock()
		for i := range batch {
			if batch[i].onItem != nil {
				batch[i].onItem(batch[i].item)
			} else {
				batch[i].fn()
			}
		}
		c.mu.Lock()
		if c.cbsSpare == nil {
			clear(batch) // drop item and closure references before recycling
			c.cbsSpare = batch[:0]
		}
	}
	c.flushing = false
	c.mu.Unlock()
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

// Receive ingests a wire message. NewClient wires the endpoint's handler
// here; tests may call it directly.
func (c *Client) Receive(from string, payload any) {
	// Unstamped traffic (a single-session host) is accepted for
	// compatibility; traffic stamped for another document is not ours.
	if c.doc != "" {
		if d := DocOf(payload); d != "" && d != c.doc {
			return
		}
	}
	c.mu.Lock()
	switch m := payload.(type) {
	case *MsgJoinAck:
		c.onJoinAck(*m)
	case *MsgItems:
		c.onItems(*m)
	case *MsgMode:
		c.onMode(*m)
	case *MsgPresence:
		c.onPresenceMsg(*m)
	}
	c.runCallbacks()
}

func (c *Client) onMode(m MsgMode) {
	c.mode = m.Mode
	if c.OnMode != nil {
		onMode := c.OnMode
		c.cbs = append(c.cbs, cb{fn: func() { onMode(m.Mode) }})
	}
}

func (c *Client) onPresenceMsg(m MsgPresence) {
	if c.OnPresence != nil {
		onPresence := c.OnPresence
		c.cbs = append(c.cbs, cb{fn: func() { onPresence(m.From, m.State) }})
	}
}

func (c *Client) onJoinAck(m MsgJoinAck) {
	c.joined = true
	c.mode = m.Mode
	if c.OnJoined != nil {
		onJoined := c.OnJoined
		c.cbs = append(c.cbs, cb{fn: func() { onJoined(m.Mode, m.Members) }})
	}
	c.deliver(m.Backlog)
}

func (c *Client) onItems(m MsgItems) {
	c.deliver(m.Items)
}

// deliver queues the items this client has not seen yet, in order.
//
//cscw:hotpath
func (c *Client) deliver(items []Item) {
	for _, it := range items {
		if it.Seq <= c.lastSeq {
			continue // duplicate (e.g. rejoin replay racing a push)
		}
		c.lastSeq = it.Seq
		if c.OnItem != nil {
			c.cbs = append(c.cbs, cb{onItem: c.OnItem, item: it})
		}
	}
}
