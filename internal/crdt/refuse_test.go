package crdt

import (
	"strings"
	"testing"
)

// TestSequenceRefusesReplays: a retransmission of an op already held back
// is dropped, not held twice, and an op that reuses an element's id under
// a new sequence number inserts nothing.
func TestSequenceRefusesReplays(t *testing.T) {
	a, b := NewSequence("a"), NewSequence("b")
	first, err := a.Insert(0, 'x')
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Insert(1, 'y')
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := b.Apply(second); err != nil {
			t.Fatal(err)
		}
	}
	if b.Held() != 1 {
		t.Fatalf("a retransmitted held op is held %d times", b.Held())
	}
	if err := b.Apply(first); err != nil || b.Text() != "xy" {
		t.Fatalf("after the gap filled: %q, %v", b.Text(), err)
	}
	reused := Op{Kind: OpSeqInsert, Site: "a", Seq: 3, ID: first.ID, Ch: 'z'}
	if err := b.Apply(reused); err != nil || b.Text() != "xy" || seqLen(b) != 2 {
		t.Fatalf("an op reusing an element's id: %q (%d visible), %v", b.Text(), seqLen(b), err)
	}
}

// TestSequenceRefusesCorruptCount: an insert whose position the element
// list cannot reach, because the visible count disagrees with it, is an
// error, not an insert somewhere else.
func TestSequenceRefusesCorruptCount(t *testing.T) {
	s := NewSequence("a")
	s.visible = 3 // no element backs it
	if op, err := s.Insert(2, 'x'); err == nil || !strings.Contains(err.Error(), "corrupt visible count") {
		t.Fatalf("Insert over a corrupt count = %+v, %v", op, err)
	}
}
