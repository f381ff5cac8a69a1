// Package ot implements operation transformation for real-time group
// editing, the concurrency-control scheme of the GROVE editor (Ellis &
// Gibbs 1989) that the paper holds up as the radical alternative to locking:
// "operations proceed immediately to improve real-time response time",
// consistency being restored by transforming remote operations before
// execution.
//
// Two integration algorithms are provided:
//
//   - Site: the distributed dOPT algorithm of the GROVE paper, operating
//     over causally-ordered multicast with priority tie-breaking. Faithful
//     to the original, including its known limitation (the "dOPT puzzle":
//     with three or more sites certain concurrency patterns transform the
//     same operation pair in different orders at different sites). Kept for
//     fidelity and benchmarked pairwise.
//   - Server/Client: a centrally-ordered integration (the Jupiter model)
//     whose convergence needs only the TP1 transformation property, proved
//     here by property-based tests. The session layer uses this variant.
//
// Operations are character-granularity (insert one rune, delete one rune),
// exactly as in GROVE; string edits decompose into character operations.
package ot

import (
	"errors"
	"fmt"
	"slices"
)

// Kind is the operation type.
type Kind int

const (
	// Insert inserts one rune at Pos.
	Insert Kind = iota + 1
	// Delete removes the rune at Pos.
	Delete
	// Noop does nothing (the identity produced when an operation's target
	// was concurrently deleted).
	Noop
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	case Noop:
		return "noop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one character-granularity editing operation. Site is the generating
// site, used only for deterministic tie-breaking of same-position
// concurrent inserts.
type Op struct {
	Kind Kind
	Pos  int
	Ch   rune
	Site string
}

// String renders the op compactly.
func (o Op) String() string {
	switch o.Kind {
	case Insert:
		return fmt.Sprintf("ins(%d,%q)@%s", o.Pos, string(o.Ch), o.Site)
	case Delete:
		return fmt.Sprintf("del(%d)@%s", o.Pos, o.Site)
	default:
		return "noop"
	}
}

// ErrOutOfRange reports an operation whose position does not fit the
// document.
var ErrOutOfRange = errors.New("ot: operation position out of range")

// Apply executes op on doc in place and returns the result. Like append,
// it may reuse doc's storage: callers keep the result and must not use doc
// afterwards. On any error doc is returned unchanged.
func Apply(doc []rune, op Op) ([]rune, error) {
	switch op.Kind {
	case Insert:
		if op.Pos < 0 || op.Pos > len(doc) {
			return doc, fmt.Errorf("%w: insert at %d, len %d", ErrOutOfRange, op.Pos, len(doc))
		}
		return slices.Insert(doc, op.Pos, op.Ch), nil
	case Delete:
		if op.Pos < 0 || op.Pos >= len(doc) {
			return doc, fmt.Errorf("%w: delete at %d, len %d", ErrOutOfRange, op.Pos, len(doc))
		}
		return slices.Delete(doc, op.Pos, op.Pos+1), nil
	case Noop:
		return doc, nil
	default:
		return doc, fmt.Errorf("ot: unknown op kind %d", op.Kind)
	}
}

// Transform returns a transformed so that applying b then Transform(a, b)
// has the same effect as a would have had on the original document
// (inclusion transformation). Same-position concurrent inserts are ordered
// by Site: the lexicographically smaller site's character ends up first.
// This function satisfies TP1:
//
//	apply(apply(d, a), Transform(b, a)) == apply(apply(d, b), Transform(a, b))
func Transform(a, b Op) Op {
	if a.Kind == Noop || b.Kind == Noop {
		return a
	}
	switch {
	case a.Kind == Insert && b.Kind == Insert:
		if b.Pos < a.Pos || (b.Pos == a.Pos && b.Site < a.Site) {
			a.Pos++
		}
	case a.Kind == Insert && b.Kind == Delete:
		if b.Pos < a.Pos {
			a.Pos--
		}
	case a.Kind == Delete && b.Kind == Insert:
		if b.Pos <= a.Pos {
			a.Pos++
		}
	case a.Kind == Delete && b.Kind == Delete:
		switch {
		case b.Pos < a.Pos:
			a.Pos--
		case b.Pos == a.Pos:
			// Both deleted the same character; one of them dissolves.
			return Op{Kind: Noop, Site: a.Site}
		}
	}
	return a
}

// Insertions converts a string edit into character insert ops starting at
// pos.
func Insertions(site string, pos int, text string) []Op {
	out := make([]Op, 0, len(text))
	for i, r := range []rune(text) {
		out = append(out, Op{Kind: Insert, Pos: pos + i, Ch: r, Site: site})
	}
	return out
}

// Deletions converts a range delete into character delete ops (all at the
// same position, since each delete shifts the remainder left).
func Deletions(site string, pos, n int) []Op {
	out := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Op{Kind: Delete, Pos: pos, Site: site})
	}
	return out
}
