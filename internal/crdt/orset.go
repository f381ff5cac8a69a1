package crdt

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/vclock"
)

// Set is an observed-remove set (OR-set) with add-wins semantics: every
// Add mints a unique dot (the op's ID), and a Remove kills only the dots
// its issuer had observed. A concurrent Add therefore survives a Remove —
// the behaviour a shared workspace wants when one participant re-adds an
// item another is pruning. Removed dots are tombstoned so an Add arriving
// after the Remove that observed it (possible across sites even with
// per-site FIFO delivery) still loses.
type Set struct {
	site    string
	opSeq   uint64
	vv      vclock.VC
	dots    map[string]map[ID]struct{} // element -> live add dots
	removed map[ID]struct{}            // dots killed by a remove
	held    []Op
}

// NewSet returns an empty replica owned by site.
func NewSet(site string) *Set {
	return &Set{
		site:    site,
		vv:      vclock.New(),
		dots:    make(map[string]map[ID]struct{}),
		removed: make(map[ID]struct{}),
	}
}

// Held returns the number of remote ops waiting on FIFO order.
func (s *Set) Held() int { return len(s.held) }

// Contains reports whether elem is in the set.
func (s *Set) Contains(elem string) bool { return len(s.dots[elem]) > 0 }

// Elements returns the members in sorted order.
func (s *Set) Elements() []string {
	out := make([]string, 0, len(s.dots))
	for elem, m := range s.dots {
		if len(m) > 0 {
			out = append(out, elem)
		}
	}
	sort.Strings(out)
	return out
}

// Add applies a local addition and returns the op to broadcast. The op's
// ID is the fresh dot.
func (s *Set) Add(elem string) Op {
	s.opSeq++
	op := Op{
		Kind: OpSetAdd,
		Site: s.site,
		Seq:  s.opSeq,
		ID:   ID{N: s.opSeq, Site: s.site},
		Elem: elem,
	}
	s.applyOp(op)
	s.vv.Tick(s.site)
	return op
}

// Remove applies a local removal and returns the op to broadcast. The op
// carries the dots this replica observed for elem; adds it has not seen
// are unaffected (add wins). Removing an absent element is a valid no-op
// op: it keeps the per-site sequence dense.
func (s *Set) Remove(elem string) Op {
	s.opSeq++
	observed := make([]ID, 0, len(s.dots[elem]))
	for dot := range s.dots[elem] {
		observed = append(observed, dot)
	}
	slices.SortFunc(observed, ID.Compare)
	op := Op{
		Kind: OpSetRemove,
		Site: s.site,
		Seq:  s.opSeq,
		Elem: elem,
		Dots: observed,
	}
	s.applyOp(op)
	s.vv.Tick(s.site)
	return op
}

// Apply integrates a remote op; duplicates are dropped, FIFO gaps held.
func (s *Set) Apply(op Op) error {
	switch op.Kind {
	case OpSetAdd, OpSetRemove:
	default:
		return fmt.Errorf("crdt: set cannot apply %v op", op.Kind)
	}
	s.held = integrate(s.vv, s.held, op, func(Op) bool { return true }, s.applyOp)
	return nil
}

func (s *Set) applyOp(op Op) {
	switch op.Kind {
	case OpSetAdd:
		if _, gone := s.removed[op.ID]; gone {
			return
		}
		m := s.dots[op.Elem]
		if m == nil {
			m = make(map[ID]struct{})
			s.dots[op.Elem] = m
		}
		m[op.ID] = struct{}{}
	case OpSetRemove:
		for _, dot := range op.Dots {
			s.removed[dot] = struct{}{}
			if m := s.dots[op.Elem]; m != nil {
				delete(m, dot)
				if len(m) == 0 {
					delete(s.dots, op.Elem)
				}
			}
		}
	}
}

// SetState is the full serializable state of a Set: live dots per element,
// the removed-dot tombstones, and the applied-op vector. Slices are sorted
// so equal states are equal values.
type SetState struct {
	Elems   map[string][]ID
	Removed []ID
	VV      vclock.VC
}

// State snapshots the replica for anti-entropy.
func (s *Set) State() *SetState {
	st := &SetState{Elems: make(map[string][]ID, len(s.dots)), VV: s.vv.Clone()}
	for elem, m := range s.dots { // Apply and MergeState delete an emptied element
		dots := make([]ID, 0, len(m))
		for dot := range m {
			dots = append(dots, dot)
		}
		slices.SortFunc(dots, ID.Compare)
		st.Elems[elem] = dots
	}
	st.Removed = make([]ID, 0, len(s.removed))
	for dot := range s.removed {
		st.Removed = append(st.Removed, dot)
	}
	slices.SortFunc(st.Removed, ID.Compare)
	return st
}

// MergeState joins a peer snapshot: tombstones union, live dots union
// minus tombstones, vectors merge, held ops drain. Idempotent,
// commutative, associative.
func (s *Set) MergeState(st *SetState) {
	for _, dot := range st.Removed {
		s.removed[dot] = struct{}{}
	}
	// Drop any of our live dots the peer has removed.
	for elem, m := range s.dots {
		for dot := range m {
			if _, gone := s.removed[dot]; gone {
				delete(m, dot)
			}
		}
		if len(m) == 0 {
			delete(s.dots, elem)
		}
	}
	for elem, dots := range st.Elems {
		for _, dot := range dots {
			if _, gone := s.removed[dot]; gone {
				continue
			}
			m := s.dots[elem]
			if m == nil {
				m = make(map[ID]struct{})
				s.dots[elem] = m
			}
			m[dot] = struct{}{}
		}
	}
	s.vv.Merge(st.VV)
	s.held = drainHeld(s.vv, s.held, func(Op) bool { return true }, s.applyOp)
}
