package crdt

import "repro/internal/fabric"

// Wire type tags for byte-oriented transports. They are exported for the
// engine's item kind table, which names a payload by its tag.
const (
	TagOp    = "crdt/op"
	TagState = "crdt/state"
)

// MsgOp carries one CRDT operation for a document. CRDT docs need no
// sequencer, so these ride the fabric as plain multicast (group broadcast
// bodies, or session items, which the session has already placed in their
// document); Doc names the document for the engine.
type MsgOp struct {
	Doc string
	Op  Op
}

// MsgState carries a full replica snapshot for anti-entropy (gossip after
// loss or partition).
type MsgState struct {
	Doc string
	Seq *SeqState
}

// RegisterWire registers the CRDT wire messages with a fabric codec, so
// replicas can converse over any fabric substrate (and over the binary
// frame codec — both messages carry hand-rolled binary bodies).
func RegisterWire(c *fabric.Codec) {
	c.Register(TagOp, MsgOp{})
	c.Register(TagState, MsgState{})
}
