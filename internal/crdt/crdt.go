// Package crdt implements conflict-free replicated data types for
// coordination-free document convergence: an RGA-style replicated sequence
// for text (Sequence), an observed-remove set (Set), and a PN-counter
// (Counter). Where the OT path (package ot) routes every edit through a
// central integration server, a CRDT replica applies local edits
// immediately, broadcasts the operation to its peers, and converges
// without any sequencer — the trade the source paper could only argue
// qualitatively (transaction walls vs cooperative flow) and that the
// bench shootout quantifies.
//
// Every type supports two replication styles:
//
//   - Op-based: each local mutation returns an Op; peers feed received ops
//     to Apply. Delivery may duplicate and reorder arbitrarily — a
//     hold-back queue gates each op on per-site FIFO order (dense Seq,
//     tracked in a vclock.VC) and on the presence of its dependencies, and
//     duplicates are dropped by the same vector.
//   - State-based: State snapshots a replica; MergeState joins a peer's
//     snapshot (anti-entropy after loss or partition). The join is
//     idempotent, commutative and associative, and the op and state paths
//     compose: merging a state advances the version vector, so ops the
//     state already covers are recognised as duplicates.
//
// The property tests sweep seeded random permutations across replicas to
// verify convergence and the semilattice laws; the fuzzers extend that to
// arbitrary interleavings and hostile wire bytes.
package crdt

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/vclock"
)

// ID identifies one CRDT event as a (counter, site) pair. For sequence
// elements the counter is the originating replica's Lamport time — the
// (N, Site) total order is the RGA integration tiebreak — while set dots
// use the per-site operation counter; both are unique per site. The zero
// ID names the sequence head sentinel.
type ID struct {
	N    uint64
	Site string
}

// IsZero reports whether the ID is the zero value (the sequence head).
func (a ID) IsZero() bool { return a.N == 0 && a.Site == "" }

// Compare orders IDs by (N, Site), as cmp.Compare orders numbers. RGA
// integration walks past successors whose ID is greater than the new
// element's, so causally-later and tie-broken-later elements keep their
// place ahead of it.
func (a ID) Compare(b ID) int {
	return cmp.Or(cmp.Compare(a.N, b.N), strings.Compare(a.Site, b.Site))
}

// OpKind discriminates the operation types carried by Op.
type OpKind uint8

// Operation kinds. Sequence ops target a Sequence, set ops a Set, counter
// ops a Counter; Apply rejects ops of the wrong kind.
const (
	OpSeqInsert OpKind = iota + 1
	OpSeqDelete
	OpSetAdd
	OpSetRemove
	OpCtrAdd
)

// String returns a short human-readable name for the kind.
func (k OpKind) String() string {
	switch k {
	case OpSeqInsert:
		return "seq-insert"
	case OpSeqDelete:
		return "seq-delete"
	case OpSetAdd:
		return "set-add"
	case OpSetRemove:
		return "set-remove"
	case OpCtrAdd:
		return "ctr-add"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one replicated operation. Site and Seq form the per-site FIFO
// header every CRDT uses for hold-back gating (Seq is dense per site); the
// remaining fields are kind-specific payload.
type Op struct {
	Kind  OpKind
	Site  string
	Seq   uint64
	ID    ID     // insert: new element; delete: target; add: the new dot
	After ID     // insert: reference element (zero = head)
	Ch    rune   // insert payload
	Elem  string // set element
	Dots  []ID   // set remove: the add dots it observed
	Delta int64  // counter increment (may be negative)
}

// integrate runs the shared hold-back protocol: deliver op if its per-site
// FIFO turn has come and ready reports its dependencies present, otherwise
// queue it; then drain the queue until a full pass makes no progress.
// Duplicates (Seq at or below the applied vector) are dropped, including
// retransmissions of ops already held. apply must not re-enter integrate.
func integrate(vv vclock.VC, held []Op, op Op, ready func(Op) bool, apply func(Op)) []Op {
	switch {
	case op.Seq <= vv.Get(op.Site):
		return held // duplicate of an applied op
	case op.Seq == vv.Get(op.Site)+1 && ready(op):
		apply(op)
		vv.Tick(op.Site)
	default:
		for _, h := range held {
			if h.Site == op.Site && h.Seq == op.Seq {
				return held // retransmission of a held op
			}
		}
		return append(held, op)
	}
	return drainHeld(vv, held, ready, apply)
}

// drainHeld re-scans the hold-back queue after the applied vector advanced
// (an op was applied, or a state merge subsumed some ops), applying every
// op whose turn has come and dropping ops the vector now covers.
func drainHeld(vv vclock.VC, held []Op, ready func(Op) bool, apply func(Op)) []Op {
	for {
		progress := false
		kept := held[:0]
		for _, h := range held {
			switch {
			case h.Seq <= vv.Get(h.Site):
				progress = true // subsumed while held
			case h.Seq == vv.Get(h.Site)+1 && ready(h):
				apply(h)
				vv.Tick(h.Site)
				progress = true
			default:
				kept = append(kept, h)
			}
		}
		held = kept
		if !progress || len(held) == 0 {
			return held
		}
	}
}
