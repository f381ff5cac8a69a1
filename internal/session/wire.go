package session

import "repro/internal/fabric"

// Wire type tags for byte-oriented transports.
const (
	tagJoin     = "session/join"
	tagJoinAck  = "session/join-ack"
	tagPost     = "session/post"
	tagItems    = "session/items"
	tagPoll     = "session/poll"
	tagMode     = "session/mode"
	tagPresence = "session/presence"
	tagLeave    = "session/leave"
)

// RegisterWire registers the session wire messages with a fabric codec, so
// Host and Client can run over fabric.FromTransport endpoints (TCP) as well
// as netsim.
func RegisterWire(c *fabric.Codec) {
	c.Register(tagJoin, MsgJoin{})
	c.Register(tagJoinAck, MsgJoinAck{})
	c.Register(tagPost, MsgPost{})
	c.Register(tagItems, MsgItems{})
	c.Register(tagPoll, MsgPoll{})
	c.Register(tagMode, MsgMode{})
	c.Register(tagPresence, MsgPresence{})
	c.Register(tagLeave, MsgLeave{})
}

// NewWireCodec returns a codec pre-loaded with the session wire messages.
func NewWireCodec() *fabric.Codec {
	c := fabric.NewCodec()
	RegisterWire(c)
	return c
}
