package session

import "repro/internal/fabric"

// Wire type tags for byte-oriented transports.
const (
	tagJoin     = "session/join"
	tagJoinAck  = "session/join-ack"
	tagPost     = "session/post"
	tagItems    = "session/items"
	tagPoll     = "session/poll"
	tagPresence = "session/presence"
	tagLeave    = "session/leave"
)

// RegisterWire registers the session wire messages with a fabric codec, so
// Host and Client can run over fabric.FromTransport endpoints (TCP) as well
// as netsim. MsgMode is not among them: a mode switch happens only inside a
// simulated world (sessiond's mode is fixed at start), so it never crosses
// a byte codec, and a frame of its retired tag "session/mode" is skipped
// like any unknown tag.
func RegisterWire(c *fabric.Codec) {
	c.Register(tagJoin, MsgJoin{})
	c.Register(tagJoinAck, MsgJoinAck{})
	c.Register(tagPost, MsgPost{})
	c.Register(tagItems, MsgItems{})
	c.Register(tagPoll, MsgPoll{})
	c.Register(tagPresence, MsgPresence{})
	c.Register(tagLeave, MsgLeave{})
}

// postFree is the storage MsgPost frames decode into: a package variable,
// so no codec's set-up allocates it.
var postFree fabric.FreeList[MsgPost]

// FreeList implements fabric.Scoped: a decoded MsgPost is lent to the handler
// chain (see MsgPost).
func (*MsgPost) FreeList() fabric.Recycler { return &postFree }

// NewWireCodec returns a codec pre-loaded with the session wire messages.
func NewWireCodec() *fabric.Codec {
	c := fabric.NewCodec()
	RegisterWire(c)
	return c
}
