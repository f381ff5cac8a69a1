package crdt

import (
	"reflect"
	"testing"
)

func TestSequenceLocalEditing(t *testing.T) {
	s := NewSequence("a")
	for i, ch := range "hello" {
		if _, err := s.Insert(i, ch); err != nil {
			t.Fatal(err)
		}
	}
	if s.Text() != "hello" {
		t.Fatalf("text %q", s.Text())
	}
	if _, err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(0, 'H'); err != nil {
		t.Fatal(err)
	}
	if s.Text() != "Hello" || seqLen(s) != 5 {
		t.Fatalf("text %q len %d", s.Text(), seqLen(s))
	}
	if _, err := s.Insert(-1, 'x'); err == nil {
		t.Fatal("insert at -1 accepted")
	}
	if _, err := s.Insert(seqLen(s)+1, 'x'); err == nil {
		t.Fatal("insert past end accepted")
	}
	if _, err := s.Delete(seqLen(s)); err == nil {
		t.Fatal("delete past end accepted")
	}
}

func TestSequenceRemoteReorderAndDuplicates(t *testing.T) {
	a, b := NewSequence("a"), NewSequence("b")
	op1, _ := a.Insert(0, 'x')
	op2, _ := a.Insert(1, 'y') // references op1's element
	// Deliver out of order: the child op is held until its reference lands.
	if err := b.Apply(op2); err != nil {
		t.Fatal(err)
	}
	if b.Held() != 1 || b.Text() != "" {
		t.Fatalf("held %d text %q before reference arrives", b.Held(), b.Text())
	}
	if err := b.Apply(op1); err != nil {
		t.Fatal(err)
	}
	if b.Held() != 0 || b.Text() != "xy" {
		t.Fatalf("held %d text %q after drain", b.Held(), b.Text())
	}
	// Duplicates (including of ops that sat in the hold-back queue) drop.
	for _, op := range []Op{op1, op2, op2} {
		if err := b.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if b.Text() != "xy" || b.Held() != 0 {
		t.Fatalf("duplicates changed state: text %q held %d", b.Text(), b.Held())
	}
	if err := b.Apply(Op{Kind: OpSeqDelete + 1, Site: "z", Seq: 1}); err == nil {
		t.Fatal("sequence accepted an op of an unknown kind")
	}
}

func TestSequenceConcurrentSiblingOrderIsStable(t *testing.T) {
	// Two sites concurrently type runs at the head; every replica must order
	// the runs identically without interleaving them.
	a, b, c := NewSequence("a"), NewSequence("b"), NewSequence("c")
	a1, _ := a.Insert(0, 'a')
	a2, _ := a.Insert(1, 'A')
	b1, _ := b.Insert(0, 'b')
	b2, _ := b.Insert(1, 'B')
	orders := [][]Op{
		{a1, a2, b1, b2},
		{b1, b2, a1, a2},
		{b1, a1, b2, a2},
	}
	texts := map[string]bool{}
	for i, r := range []*Sequence{c, NewSequence("d"), NewSequence("e")} {
		for _, op := range orders[i] {
			if err := r.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		texts[r.Text()] = true
	}
	if len(texts) != 1 {
		t.Fatalf("delivery order changed the document: %v", texts)
	}
	for text := range texts {
		if text != "aAbB" && text != "bBaA" {
			t.Fatalf("runs interleaved: %q", text)
		}
	}
}

func TestSequenceMergeState(t *testing.T) {
	a, b := NewSequence("a"), NewSequence("b")
	if _, err := a.Insert(0, 'x'); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Insert(0, 'y'); err != nil {
		t.Fatal(err)
	}
	if err := a.MergeState(b.State()); err != nil {
		t.Fatal(err)
	}
	if err := b.MergeState(a.State()); err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Fatalf("states diverged: %q vs %q", a.Text(), b.Text())
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatalf("full states diverged:\n%+v\n%+v", a.State(), b.State())
	}
	// A state element with a dangling reference is corrupt.
	bad := &SeqState{Nodes: []SeqNode{{ID: ID{N: 9, Site: "z"}, After: ID{N: 8, Site: "z"}, Ch: 'q'}}}
	if err := NewSequence("f").MergeState(bad); err == nil {
		t.Fatal("dangling reference accepted")
	}
}

// TestSequenceMergeStateAllOrNothing: a state whose third element names an
// unknown reference is rejected before any element integrates, so the
// replica's text, length, vector and held ops are as they were, and the
// uncorrupted state merges afterwards.
func TestSequenceMergeStateAllOrNothing(t *testing.T) {
	s, peer, h := NewSequence("s"), NewSequence("p"), NewSequence("h")
	if _, err := s.Insert(0, 'a'); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Insert(0, '1'); err != nil {
		t.Fatal(err)
	}
	gap, err := h.Insert(1, '2')
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(gap); err != nil { // held: h's first op is missing
		t.Fatal(err)
	}
	for i, ch := range "xyz" {
		if _, err := peer.Insert(i, ch); err != nil {
			t.Fatal(err)
		}
	}
	text, n, vv, held := s.Text(), seqLen(s), s.vv.Clone(), s.Held()

	bad := peer.State()
	bad.Nodes[2].After = ID{N: 99, Site: "ghost"}
	if err := s.MergeState(bad); err == nil {
		t.Fatal("a state with an unknown reference was accepted")
	}
	if s.Text() != text || seqLen(s) != n || !reflect.DeepEqual(s.vv.Clone(), vv) || s.Held() != held {
		t.Fatalf("rejected merge changed the replica: text %q len %d vv %v held %d, want %q %d %v %d",
			s.Text(), seqLen(s), s.vv.Clone(), s.Held(), text, n, vv, held)
	}

	if err := s.MergeState(peer.State()); err != nil {
		t.Fatal(err)
	}
	if err := peer.MergeState(s.State()); err != nil {
		t.Fatal(err)
	}
	if s.Text() != peer.Text() || seqLen(s) != 4 || s.Held() != held {
		t.Fatalf("after the valid merge: %q vs %q, len %d, held %d", s.Text(), peer.Text(), seqLen(s), s.Held())
	}
}

// TestSequenceMergeDrainsHeld: a state merge drains the hold-back queue.
// An op held at a FIFO gap that the merged state already covers is dropped
// as subsumed; one whose gap the state fills is applied.
func TestSequenceMergeDrainsHeld(t *testing.T) {
	a, b, c := NewSequence("a"), NewSequence("b"), NewSequence("c")
	var ops []Op
	var mid *SeqState // a after x and y
	for i, ch := range "xyz" {
		if i == 2 {
			mid = a.State()
		}
		op, err := a.Insert(i, ch)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	for _, op := range ops[1:] { // held: a's first op is missing
		if err := b.Apply(op); err != nil {
			t.Fatal(err)
		}
		if err := c.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if b.Held() != 2 || c.Held() != 2 {
		t.Fatalf("held %d and %d before the merge, want 2", b.Held(), c.Held())
	}
	if err := b.MergeState(a.State()); err != nil { // covers every held op
		t.Fatal(err)
	}
	if err := c.MergeState(mid); err != nil { // covers y; fills z's gap
		t.Fatal(err)
	}
	for _, s := range []*Sequence{b, c} {
		if s.Held() != 0 || s.Text() != "xyz" {
			t.Fatalf("after the merge: held %d, text %q", s.Held(), s.Text())
		}
	}
}
