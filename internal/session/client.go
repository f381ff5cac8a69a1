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

	// mu guards everything below, out included: every entry point is one
	// out.Do, which queues the On* callbacks due while mu is held and runs
	// them with it released.
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
	// A frame's items — the push hot path — are queued as one delivery of
	// the received message, which receivers only read, and the last
	// sequence number seen before it; mode, presence and joined
	// notifications are queued calls.
	c.out = fabric.NewOutbox(&c.mu, ep, func(frame any, since uint64) {
		if m, ok := frame.(*MsgJoinAck); ok {
			unseen(m.Backlog, m.segs, since, c.OnItem)
		} else {
			unseen(frame.(*MsgItems).Items, frame.(*MsgItems).segs, since, c.OnItem)
		}
	})
	ep.SetHandler(func(from string, payload any, size int) {
		c.Receive(from, payload)
	})
	return c
}

// ID returns the client's identifier.
func (c *Client) ID() string { return c.ep.ID() }

// Joined reports whether the join handshake completed.
func (c *Client) Joined() (joined bool) {
	c.out.Do(func() { joined = c.joined })
	return joined
}

// Mode returns the last known session mode.
func (c *Client) Mode() (m Mode) {
	c.out.Do(func() { m = c.mode })
	return m
}

// LastSeq returns the highest item sequence number seen.
func (c *Client) LastSeq() (seq uint64) {
	c.out.Do(func() { seq = c.lastSeq })
	return seq
}

// Join requests (re)admission, asking for replay of anything after the last
// item this client saw.
func (c *Client) Join(now time.Duration) error {
	if c.host == "" {
		return ErrNoHost
	}
	return c.ep.Send(c.host, &MsgJoin{Doc: c.doc, From: c.ID(), Since: c.LastSeq(), State: Active}, 64)
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
	var joined bool
	var since uint64
	c.out.Do(func() { joined, since = c.joined, c.lastSeq })
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
	var joined bool
	c.out.Do(func() { joined, c.joined = c.joined, false })
	if !joined {
		return fmt.Errorf("%w: %s", ErrNotJoined, c.ID())
	}
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
	c.out.Do(func() {
		switch m := payload.(type) {
		case *MsgJoinAck:
			c.joined, c.mode = true, m.Mode
			if onJoined := c.OnJoined; onJoined != nil {
				c.out.Call(func() { onJoined(m.Mode, m.Members) })
			}
			c.deliver(m, m.Backlog, m.segs)
		case *MsgItems:
			c.deliver(m, m.Items, m.segs)
		case *MsgMode:
			c.mode = m.Mode
		case *MsgPresence:
			if onPresence := c.OnPresence; onPresence != nil {
				c.out.Call(func() { onPresence(m.From, m.State) })
			}
		}
	})
}

// deliver moves the client's cursor past the items of frame's run (items,
// or segs when it is set, which is the host's log) and, if any is new to
// it, queues one delivery of the frame from the cursor it started at.
//
//cscw:hotpath
func (c *Client) deliver(frame any, items []Item, segs *[][]Item) {
	since := c.lastSeq
	c.lastSeq = unseen(items, segs, since, nil)
	if c.lastSeq > since && c.OnItem != nil {
		c.out.Deliver(frame, since)
	}
}

// unseen calls yield, unless it is nil, with each item of a run (items, or
// segs when it is set) whose sequence number is above since and every one
// before it, in order, and returns the highest sequence number it saw.
func unseen(items []Item, segs *[][]Item, since uint64, yield func(Item)) uint64 {
	run := [][]Item{items}
	if segs != nil {
		run = *segs
	}
	for _, seg := range run {
		for i := range seg {
			if seg[i].Seq <= since {
				continue // duplicate (e.g. rejoin replay racing a push)
			}
			since = seg[i].Seq
			if yield != nil {
				yield(seg[i])
			}
		}
	}
	return since
}
