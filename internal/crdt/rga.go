package crdt

import (
	"fmt"
	"strings"

	"repro/internal/vclock"
)

// Sequence is a replicated growable array (RGA) over runes: the CRDT
// counterpart of the OT document. Each element is identified by the
// Lamport time and site of its insertion; deletion leaves a tombstone so
// concurrent inserts anchored on the deleted element still find their
// reference. Elements live in an arena (a linked list threaded through a
// slice), so integration never shifts memory and the ID index stays valid.
//
// Integration rule: a remote insert placed "after" its reference element
// walks the reference's current successors and skips every element whose
// ID is greater than the new element's. Descendant Lamport times always
// exceed their ancestor's, so the walk skips whole subtrees and concurrent
// siblings order by (time, site) identically at every replica — the RGA
// convergence argument (Roh et al.; Shapiro & Preguiça's CRDT treatment).
type Sequence struct {
	site    string
	clk     vclock.Lamport
	opSeq   uint64
	vv      vclock.VC
	nodes   []seqNode    // arena; nodes[0] is the head sentinel
	index   map[ID]int32 // element ID -> arena index
	sites   map[string]string
	visible int
	held    []Op
}

type seqNode struct {
	id      ID
	after   ID // original insert reference (zero = head)
	ch      rune
	deleted bool
	next    int32 // arena index of list successor; -1 ends the list
}

// NewSequence returns an empty replica owned by site.
func NewSequence(site string) *Sequence {
	s := &Sequence{
		site:  site,
		vv:    vclock.New(),
		nodes: make([]seqNode, 1, 64),
		index: make(map[ID]int32),
		sites: make(map[string]string),
	}
	s.nodes[0].next = -1
	return s
}

// Held returns the number of remote ops waiting on FIFO order or missing
// dependencies.
func (s *Sequence) Held() int { return len(s.held) }

// Text renders the visible elements in document order.
func (s *Sequence) Text() string {
	buf := make([]rune, 0, s.visible)
	for i := s.nodes[0].next; i != -1; i = s.nodes[i].next {
		if !s.nodes[i].deleted {
			buf = append(buf, s.nodes[i].ch)
		}
	}
	return string(buf)
}

// visibleAt returns the arena index of the pos-th visible element.
func (s *Sequence) visibleAt(pos int) (int32, error) {
	if pos < 0 || pos >= s.visible {
		return -1, fmt.Errorf("crdt: position %d outside [0,%d)", pos, s.visible)
	}
	seen := -1
	for i := s.nodes[0].next; i != -1; i = s.nodes[i].next {
		if s.nodes[i].deleted {
			continue
		}
		seen++
		if seen == pos {
			return i, nil
		}
	}
	return -1, fmt.Errorf("crdt: position %d not reached (corrupt visible count)", pos)
}

// Insert applies a local insertion of ch at visible position pos (0 =
// front, the visible length = back) and returns the op to broadcast.
func (s *Sequence) Insert(pos int, ch rune) (Op, error) {
	if pos < 0 || pos > s.visible {
		return Op{}, fmt.Errorf("crdt: insert position %d outside [0,%d]", pos, s.visible)
	}
	after := ID{} // head
	if pos > 0 {
		i, err := s.visibleAt(pos - 1)
		if err != nil {
			return Op{}, err
		}
		after = s.nodes[i].id
	}
	op := Op{
		Kind:  OpSeqInsert,
		Site:  s.site,
		Seq:   s.opSeq + 1,
		ID:    ID{N: s.clk.Tick(), Site: s.site},
		After: after,
		Ch:    ch,
	}
	s.applyOp(op)
	s.opSeq++
	s.vv.Tick(s.site)
	return op, nil
}

// Delete applies a local deletion of the element at visible position pos
// and returns the op to broadcast.
func (s *Sequence) Delete(pos int) (Op, error) {
	i, err := s.visibleAt(pos)
	if err != nil {
		return Op{}, err
	}
	op := Op{
		Kind: OpSeqDelete,
		Site: s.site,
		Seq:  s.opSeq + 1,
		ID:   s.nodes[i].id,
	}
	s.applyOp(op)
	s.opSeq++
	s.vv.Tick(s.site)
	return op, nil
}

// Apply integrates a remote op. Delivery may duplicate and reorder: ops
// arriving early (FIFO gap, or a reference/target not yet inserted) are
// held back, duplicates are dropped.
func (s *Sequence) Apply(op Op) error {
	switch op.Kind {
	case OpSeqInsert, OpSeqDelete:
	default:
		return fmt.Errorf("crdt: sequence cannot apply %v op", op.Kind)
	}
	s.integrate(op)
	return nil
}

// integrate runs the hold-back protocol: deliver op if its per-site FIFO
// turn has come and its reference or target is present, otherwise queue
// it; then drain the queue. Duplicates (Seq at or below the applied
// vector) are dropped, including retransmissions of ops already held.
func (s *Sequence) integrate(op Op) {
	switch {
	case op.Seq <= s.vv.Get(op.Site):
		return // duplicate of an applied op
	case op.Seq == s.vv.Get(op.Site)+1 && s.ready(op):
		s.applyOp(op)
		s.vv.Tick(op.Site)
		s.drainHeld()
	default:
		for _, h := range s.held {
			if h.Site == op.Site && h.Seq == op.Seq {
				return // retransmission of a held op
			}
		}
		s.held = append(s.held, op)
	}
}

// drainHeld re-scans the hold-back queue after the applied vector advanced
// (an op was applied, or a state merge subsumed some ops) until a full pass
// makes no progress, applying every op whose turn has come and dropping
// ops the vector now covers.
func (s *Sequence) drainHeld() {
	for {
		progress := false
		kept := s.held[:0]
		for _, h := range s.held {
			switch {
			case h.Seq <= s.vv.Get(h.Site):
				progress = true // subsumed while held
			case h.Seq == s.vv.Get(h.Site)+1 && s.ready(h):
				s.applyOp(h)
				s.vv.Tick(h.Site)
				progress = true
			default:
				kept = append(kept, h)
			}
		}
		s.held = kept
		if !progress || len(s.held) == 0 {
			return
		}
	}
}

func (s *Sequence) ready(op Op) bool {
	if op.Kind == OpSeqDelete {
		_, ok := s.index[op.ID]
		return ok
	}
	if op.After.IsZero() {
		return true
	}
	_, ok := s.index[op.After]
	return ok
}

func (s *Sequence) applyOp(op Op) {
	if op.Kind == OpSeqDelete {
		i := s.index[op.ID]
		if !s.nodes[i].deleted {
			s.nodes[i].deleted = true
			s.visible--
		}
		return
	}
	s.insertNode(op.ID, op.After, op.Ch)
}

// insertNode integrates one element by the RGA rule. The caller guarantees
// the reference element exists (ready, or state-merge node order).
func (s *Sequence) insertNode(id, after ID, ch rune) {
	if _, ok := s.index[id]; ok {
		return
	}
	id.Site, after.Site = s.intern(id.Site), s.intern(after.Site)
	at := int32(0)
	if !after.IsZero() {
		at = s.index[after]
	}
	for next := s.nodes[at].next; next != -1 && id.Compare(s.nodes[next].id) < 0; next = s.nodes[at].next {
		at = next
	}
	n := int32(len(s.nodes))
	s.nodes = append(s.nodes, seqNode{id: id, after: after, ch: ch, next: s.nodes[at].next})
	s.nodes[at].next = n
	s.index[id] = n
	s.visible++
	s.clk.Observe(id.N)
}

// intern returns the replica's own copy of site. A decoded op's Site is a
// substring of the string it was decoded from, and every element and index
// key keeps its ID: stored as it came, one per element would keep that
// whole string alive. The copy is made once per site.
func (s *Sequence) intern(site string) string {
	if own, ok := s.sites[site]; ok {
		return own
	}
	own := strings.Clone(site)
	s.sites[own] = own
	return own
}

// SeqNode is one element of a serialized Sequence state.
type SeqNode struct {
	ID      ID
	After   ID
	Ch      rune
	Deleted bool
}

// SeqState is the full serializable state of a Sequence: every element
// (live and tombstoned) in document order plus the applied-op vector.
// Elements always appear after their insert reference, so a receiver
// integrates them in one forward pass.
type SeqState struct {
	Nodes []SeqNode
	VV    vclock.VC
}

// State snapshots the replica for anti-entropy.
func (s *Sequence) State() *SeqState {
	st := &SeqState{Nodes: make([]SeqNode, 0, len(s.nodes)-1), VV: s.vv.Clone()}
	for i := s.nodes[0].next; i != -1; i = s.nodes[i].next {
		n := s.nodes[i]
		st.Nodes = append(st.Nodes, SeqNode{ID: n.id, After: n.after, Ch: n.ch, Deleted: n.deleted})
	}
	return st
}

// MergeState joins a peer snapshot into s: unseen elements integrate by
// the same RGA rule the op path uses, tombstones union, and the vectors
// merge, after which held ops the state subsumed drain as duplicates. The
// join is idempotent, commutative and associative. A state whose element
// references an insert reference absent from both the state prefix and
// this replica is corrupt and rejected whole: the replica is left as it was.
func (s *Sequence) MergeState(st *SeqState) error {
	prefix := make(map[ID]bool) // the state's elements this replica lacks, so far
	for _, n := range st.Nodes {
		if _, ok := s.index[n.ID]; ok {
			continue
		}
		if _, ok := s.index[n.After]; !ok && !n.After.IsZero() && !prefix[n.After] {
			return fmt.Errorf("crdt: state element %v references unknown element %v", n.ID, n.After)
		}
		prefix[n.ID] = true
	}
	for _, n := range st.Nodes {
		i, ok := s.index[n.ID]
		if !ok {
			s.insertNode(n.ID, n.After, n.Ch)
			i = s.index[n.ID]
		}
		if n.Deleted && !s.nodes[i].deleted {
			s.nodes[i].deleted = true
			s.visible--
		}
	}
	s.vv.Merge(st.VV)
	s.drainHeld()
	return nil
}
