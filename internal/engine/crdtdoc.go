package engine

import (
	"fmt"

	"repro/internal/crdt"
)

// crdtDoc adapts a crdt.Sequence to the Doc interface. Every replica is
// symmetric: edits broadcast ops (no server, no acks), and Tick gossips a
// full state snapshot — the anti-entropy that converges replicas after
// loss or partition without any retransmission protocol.
type crdtDoc struct {
	doc string
	seq *crdt.Sequence
}

func newCRDTDoc(doc, site string) *crdtDoc {
	return &crdtDoc{doc: doc, seq: crdt.NewSequence(site)}
}

func (d *crdtDoc) Text() string { return d.seq.Text() }
func (d *crdtDoc) Pending() int { return d.seq.Held() }

func (d *crdtDoc) Insert(pos int, ch rune) ([]Msg, error) {
	op, err := d.seq.Insert(pos, ch)
	if err != nil {
		return nil, err
	}
	return []Msg{{Body: &crdt.MsgOp{Doc: d.doc, Op: op}}}, nil
}

func (d *crdtDoc) Delete(pos int) ([]Msg, error) {
	op, err := d.seq.Delete(pos)
	if err != nil {
		return nil, err
	}
	return []Msg{{Body: &crdt.MsgOp{Doc: d.doc, Op: op}}}, nil
}

func (d *crdtDoc) Apply(_ string, payload any) ([]Msg, error) {
	switch m := payload.(type) {
	case *crdt.MsgOp:
		return nil, d.seq.Apply(m.Op)
	case *crdt.MsgState:
		return nil, d.seq.MergeState(m.Seq)
	default:
		return nil, fmt.Errorf("engine: crdt doc cannot apply %T", payload)
	}
}

// Tick gossips the full replica state. Snapshot size grows with document
// history (tombstones included) — the shootout reports that honestly as
// bytes on wire.
func (d *crdtDoc) Tick() []Msg {
	return []Msg{{Body: &crdt.MsgState{Doc: d.doc, Seq: d.seq.State()}}}
}
