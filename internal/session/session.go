// Package session implements multiparty CSCW sessions spanning Johansen's
// space-time matrix (Figure 1 of the paper): synchronous or asynchronous
// interaction, co-located or remote participants, with *seamless*
// transitions between modes — the requirement the paper stresses ("work
// often switches rapidly between asynchronous and synchronous
// interactions").
//
// The model is host-centric: a session host keeps the item log, membership
// and presence; participants post items to the host. In synchronous mode
// the host pushes items to every present participant immediately; in
// asynchronous mode items accumulate and participants poll (store and
// forward). Switching a live session from asynchronous to synchronous
// flushes each participant's backlog — the measured "transition cost" of
// experiment F1 — without tearing the session down.
//
// The package is transport-agnostic in the same style as package group:
// Host and Client speak through a fabric.Endpoint, so the same code runs
// over netsim (experiments) and over TCP (cmd/sessiond) via the wire types
// RegisterWire registers, each with a hand-rolled binary body (binwire.go).
package session

import (
	"errors"
	"fmt"
	"time"
)

// Mode is the time dimension of the space-time matrix.
type Mode int

const (
	// Synchronous pushes items to present participants immediately.
	Synchronous Mode = iota + 1
	// Asynchronous stores items for later polling.
	Asynchronous
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Synchronous {
		return "synchronous"
	}
	return "asynchronous"
}

// Presence is a participant's availability state.
type Presence int

const (
	// Active means present and receiving pushes.
	Active Presence = iota + 1
	// Away means joined but not receiving pushes (items queue).
	Away
	// Offline means departed; items queue until rejoin.
	Offline
)

// String returns the presence name.
func (p Presence) String() string {
	switch p {
	case Active:
		return "active"
	case Away:
		return "away"
	case Offline:
		return "offline"
	default:
		return fmt.Sprintf("Presence(%d)", int(p))
	}
}

// Errors returned by the session layer.
var (
	ErrNotJoined = errors.New("session: participant has not joined")
	ErrNoHost    = errors.New("session: client has no host configured")
)

// Item is one unit of session content (an edit, a chat line, a strip move).
type Item struct {
	Seq  uint64
	From string
	Kind string
	Body string
	At   time.Duration
}

// Wire message types. Over TCP the codec writes their binary bodies
// (binwire.go); over netsim they travel as in-memory values. Every message
// carries a Doc — the document (session) key — so one Host can serve many
// documents on one endpoint and a sharded deployment can place each document
// in its own ordering domain. An empty Doc is the unnamed document, a key
// like any other.

// MsgJoin is a participant's join (or rejoin) request.
type MsgJoin struct {
	Doc   string
	From  string
	Since uint64 // replay items after this sequence number
	State Presence
}

// MsgJoinAck carries the backlog and session mode to a joiner.
type MsgJoinAck struct {
	Doc     string
	Mode    Mode
	Backlog []Item
	Members []string
}

// MsgPost submits an item to the host.
type MsgPost struct {
	Doc  string
	From string
	Kind string
	Body string
}

// MsgItems pushes items to a participant.
type MsgItems struct {
	Doc   string
	Items []Item
}

// MsgPoll requests items after Since.
type MsgPoll struct {
	Doc   string
	From  string
	Since uint64
}

// MsgMode announces a session mode switch.
type MsgMode struct {
	Doc  string
	Mode Mode
}

// MsgPresence announces a presence change.
type MsgPresence struct {
	Doc   string
	From  string
	State Presence
}

// MsgLeave announces departure.
type MsgLeave struct {
	Doc  string
	From string
}

// DocKey implements DocKeyed for each session message.
func (m MsgJoin) DocKey() string     { return m.Doc }
func (m MsgJoinAck) DocKey() string  { return m.Doc }
func (m MsgPost) DocKey() string     { return m.Doc }
func (m MsgItems) DocKey() string    { return m.Doc }
func (m MsgPoll) DocKey() string     { return m.Doc }
func (m MsgMode) DocKey() string     { return m.Doc }
func (m MsgPresence) DocKey() string { return m.Doc }
func (m MsgLeave) DocKey() string    { return m.Doc }

// DocKeyed is implemented by the session messages above, the only payloads
// a Host demultiplexes: engine and CRDT messages reach a session inside
// item bodies, whose document the carrying message names.
type DocKeyed interface {
	DocKey() string
}

// DocOf extracts the document key from a DocKeyed payload ("" for the
// unnamed document or an unkeyed payload). Host demultiplexes with it.
func DocOf(payload any) string {
	if m, ok := payload.(DocKeyed); ok {
		return m.DocKey()
	}
	return ""
}
