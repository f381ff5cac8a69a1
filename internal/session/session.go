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
// over netsim (experiments) and over TCP (cmd/sessiond) via the
// JSON-tagged wire types registered by RegisterWire.
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
	Seq  uint64        `json:"seq"`
	From string        `json:"from"`
	Kind string        `json:"kind"`
	Body string        `json:"body"`
	At   time.Duration `json:"at"`
}

// Wire message types. Bodies are JSON-friendly so the TCP adapter can
// marshal them; over netsim they travel as in-memory values. Every message
// carries an optional Doc — the document (session) key — so one endpoint
// can serve many sessions (MultiHost) and shard routers can place each
// document in its own ordering domain. An empty Doc is the unnamed
// session, which keeps single-session deployments unchanged.

// MsgJoin is a participant's join (or rejoin) request.
type MsgJoin struct {
	Doc   string   `json:"doc,omitempty"`
	From  string   `json:"from"`
	Since uint64   `json:"since"` // replay items after this sequence number
	State Presence `json:"state"`
}

// MsgJoinAck carries the backlog and session mode to a joiner.
type MsgJoinAck struct {
	Doc     string   `json:"doc,omitempty"`
	Mode    Mode     `json:"mode"`
	Backlog []Item   `json:"backlog"`
	Members []string `json:"members"`
}

// MsgPost submits an item to the host.
type MsgPost struct {
	Doc  string `json:"doc,omitempty"`
	From string `json:"from"`
	Kind string `json:"kind"`
	Body string `json:"body"`
}

// MsgItems pushes items to a participant.
type MsgItems struct {
	Doc   string `json:"doc,omitempty"`
	Items []Item `json:"items"`
}

// MsgPoll requests items after Since.
type MsgPoll struct {
	Doc   string `json:"doc,omitempty"`
	From  string `json:"from"`
	Since uint64 `json:"since"`
}

// MsgMode announces a session mode switch.
type MsgMode struct {
	Doc  string `json:"doc,omitempty"`
	Mode Mode   `json:"mode"`
}

// MsgPresence announces a presence change.
type MsgPresence struct {
	Doc   string   `json:"doc,omitempty"`
	From  string   `json:"from"`
	State Presence `json:"state"`
}

// MsgLeave announces departure.
type MsgLeave struct {
	Doc  string `json:"doc,omitempty"`
	From string `json:"from"`
}

// DocKeyed is implemented by foreign wire payloads (CRDT ops and state
// snapshots, engine traffic) that carry a session document key, so DocOf
// can demultiplex them without this package importing their types.
type DocKeyed interface {
	DocKey() string
}

// DocOf extracts the document key from any session wire message, or from
// any foreign payload implementing DocKeyed (empty for the unnamed session
// or unkeyed payloads). MultiHost demultiplexes with it.
func DocOf(payload any) string {
	switch m := payload.(type) {
	case *MsgJoin:
		return m.Doc
	case *MsgJoinAck:
		return m.Doc
	case *MsgPost:
		return m.Doc
	case *MsgItems:
		return m.Doc
	case *MsgPoll:
		return m.Doc
	case *MsgMode:
		return m.Doc
	case *MsgPresence:
		return m.Doc
	case *MsgLeave:
		return m.Doc
	case DocKeyed:
		return m.DocKey()
	default:
		return ""
	}
}
