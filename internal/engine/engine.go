// Package engine binds a session document to a convergence engine: the
// centrally-integrated OT path (package ot) or the coordination-free CRDT
// path (package crdt), behind one Doc interface. Callers edit a local
// replica and shuttle the returned messages however they like — group
// multicast, session items, raw endpoints — so the same scenario, bench or
// daemon code can run either engine and the OT-vs-CRDT shootout compares
// them on identical plumbing.
//
// The binding is deliberately transport-free (it never touches netsim or
// sockets): a Doc turns edits into messages and messages into edits.
// Delivery may lose, duplicate and reorder; Tick is the recovery heartbeat
// (OT: resend + pull missed commits; CRDT: gossip a state snapshot).
//
// Server is the OT integration site's role alone, on item bodies: a
// submission's body in, its commit's body out, with no message boxed. The
// daemon runs it per document, and the OT Doc's server replica is a typed
// adapter over it, so the integration logic exists once.
package engine

import "fmt"

// Msg is one outbound protocol message. Body is a payload registered by
// RegisterWire; To names the receiving site, with "" meaning broadcast to
// every other replica.
type Msg struct {
	To   string
	Body any
}

// Doc is one site's replica of a convergence-engine document.
//
// Insert/Delete apply a local edit immediately (full local responsiveness,
// both engines) and return the messages to send. Apply ingests a payload
// received from another site and may itself return messages (an OT server
// broadcasting a commit, a client releasing its next buffered submission).
// Tick drives loss recovery and returns the messages for one round.
// Pending reports protocol state still in flight: unacknowledged or
// held-back operations; converged idle replicas report zero.
type Doc interface {
	Text() string
	Insert(pos int, ch rune) ([]Msg, error)
	Delete(pos int) ([]Msg, error)
	Apply(from string, payload any) ([]Msg, error)
	Tick() []Msg
	Pending() int
}

// Engine names accepted by New.
const (
	OT   = "ot"
	CRDT = "crdt"
)

// New builds a replica of document doc for site. server names the OT
// integration site: the replica whose site equals server runs the
// authoritative ot.Server; the CRDT engine has no server and ignores it.
func New(engine, doc, site, server string) (Doc, error) {
	switch engine {
	case OT:
		if server == "" {
			return nil, fmt.Errorf("engine: ot engine needs a server site")
		}
		return newOTDoc(site, server), nil
	case CRDT:
		return newCRDTDoc(doc, site), nil
	default:
		return nil, fmt.Errorf("engine: unknown engine %q (want %q or %q)", engine, OT, CRDT)
	}
}
