// Package crdt implements the conflict-free replicated sequence behind the
// convergence engine: an RGA-style sequence of runes (Sequence). Where the
// OT path (package ot) routes every edit through a central integration
// server, a CRDT replica applies local edits immediately, broadcasts the
// operation to its peers, and converges without any sequencer — the trade
// the source paper could only argue qualitatively (transaction walls vs
// cooperative flow) and that the bench shootout quantifies.
//
// The sequence supports two replication styles:
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
)

// ID identifies one sequence element as a (counter, site) pair: the
// counter is the originating replica's Lamport time, unique per site, and
// the (N, Site) total order is the RGA integration tiebreak. The zero ID
// names the sequence head sentinel.
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

// Operation kinds. Their values are wire bytes: a kind byte of 3, 4 or 5
// (the set and counter ops of older trees) is refused.
const (
	OpSeqInsert OpKind = iota + 1
	OpSeqDelete
)

// String returns a short human-readable name for the kind.
func (k OpKind) String() string {
	switch k {
	case OpSeqInsert:
		return "seq-insert"
	case OpSeqDelete:
		return "seq-delete"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one replicated operation. Site and Seq form the per-site FIFO
// header the hold-back queue gates on (Seq is dense per site); the
// remaining fields are the edit.
type Op struct {
	Kind  OpKind
	Site  string
	Seq   uint64
	ID    ID   // insert: new element; delete: target
	After ID   // insert: reference element (zero = head)
	Ch    rune // insert payload
}
