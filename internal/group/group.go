// Package group implements process-group communication for CSCW sessions:
// membership views, multicast with selectable ordering guarantees (FIFO,
// causal, total) and group RPC ("group invocation" in the paper's ODP
// terminology, §4.2.2.iv).
//
// The implementation is handler-driven and transport-agnostic: a Member
// sends and receives through a fabric.Endpoint, so the same protocol code
// runs over the deterministic netsim virtual network (for experiments) and
// over real byte transports (for live sessions); RegisterWire adds the
// group packet to a fabric codec for the latter.
//
// Total order is provided by two interchangeable protocols — a fixed
// sequencer and a circulating token — which experiment E7 ablates against
// each other.
//
// There is one send path and one receive path. Every Multicast is stamped
// and appended to the member's send buffer, which flushes as a run: of one
// message by default, of up to BatchConfig's limit when batching is
// configured (batch.go). A run of one is the bare data packet, so batching
// is a matter of how long the runs are, not of which code handles them, and
// members with different limits share a view.
package group

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/vclock"
)

// Ordering selects the multicast delivery guarantee.
type Ordering int

const (
	// Unordered delivers messages as they arrive.
	Unordered Ordering = iota + 1
	// FIFO delivers messages from each sender in send order.
	FIFO
	// Causal delivers messages respecting potential causality.
	Causal
	// TotalSequencer delivers all messages in one global order fixed by a
	// sequencer member.
	TotalSequencer
	// TotalToken delivers all messages in one global order fixed by a
	// circulating token.
	TotalToken
)

// String returns the ordering name.
func (o Ordering) String() string {
	switch o {
	case Unordered:
		return "unordered"
	case FIFO:
		return "fifo"
	case Causal:
		return "causal"
	case TotalSequencer:
		return "total-sequencer"
	case TotalToken:
		return "total-token"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Errors returned by group operations.
var (
	ErrNotMember   = errors.New("group: not a member of current view")
	ErrEmptyView   = errors.New("group: view has no members")
	ErrRPCDeadline = errors.New("group: rpc deadline exceeded")
	ErrNoSuchCall  = errors.New("group: unknown rpc call")
)

// Timer schedules a callback after a delay. Over netsim this is Sim.At; in
// real time it can be wrapped around time.AfterFunc.
type Timer interface {
	After(d time.Duration, fn func())
}

// TimerFunc adapts a function to the Timer interface.
type TimerFunc func(d time.Duration, fn func())

// After implements Timer.
func (f TimerFunc) After(d time.Duration, fn func()) { f(d, fn) }

// View is a membership epoch: a numbered, sorted member list. Members must
// not be mutated after the view is installed — members hand the slice out
// as a zero-copy fan-out snapshot. NewView copies its input, so views built
// through it are always safe.
type View struct {
	ID      uint64
	Members []string
}

// Contains reports whether id is in the view.
func (v View) Contains(id string) bool {
	for _, m := range v.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Sequencer returns the member responsible for total-order sequencing in
// this view (the least member ID, so every member agrees without extra
// communication).
func (v View) Sequencer() string {
	if len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// NewView builds a view with the members sorted canonically.
func NewView(id uint64, members []string) View {
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	return View{ID: id, Members: ms}
}

// Delivery is a multicast message handed to the application.
type Delivery struct {
	From   string
	Body   any
	Seq    uint64    // global sequence number (total orderings only)
	VC     vclock.VC // causal timestamp (Causal ordering only)
	ViewID uint64
}

// DeliverFunc consumes delivered messages in their final order.
type DeliverFunc func(d Delivery)

// ViewFunc observes installed view changes.
type ViewFunc func(v View)

// packet kinds on the wire.
type kind int

const (
	kData kind = iota + 1
	kOrder
	kView
	kRPCReq
	kRPCRep
	kToken
	kTokenReq
	kNack
	kSync
	kBatch
)

// packet is the wire unit exchanged between members. Over netsim it
// travels as an in-memory value; over byte transports RegisterWire gives it
// a frame tag and binwire.go its binary body. The field names and kData=1,
// kOrder=2 are read by reflection in benchmark/load/shim.go.
type packet struct {
	Kind   kind
	From   string
	ViewID uint64
	// data
	Body      any
	Size      int
	SenderSeq uint64    // per-sender sequence for FIFO
	VC        vclock.VC // causal timestamp
	MsgID     msgID     // identity for total-order pairing
	GlobalSeq uint64    // total-order position (kOrder, or piggybacked)
	// view change
	NewView *View
	// rpc
	CallID  uint64
	Op      string
	IsError bool
	ErrText string
	// nack: the sender-sequence range [NackFrom, NackTo] being requested
	NackFrom uint64
	NackTo   uint64
	// runs: a kBatch packet carries the data packets of a flushed run of
	// two or more (a run of one travels as the bare kData); a kOrder packet
	// with MsgIDs assigns the contiguous sequence run starting at GlobalSeq
	// to those messages in order (one announcement per batch — the
	// sequencer pipelining).
	Msgs   []*packet
	MsgIDs []msgID
}

type msgID struct {
	Origin string
	N      uint64
}
