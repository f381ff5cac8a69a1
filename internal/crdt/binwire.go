package crdt

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/vclock"
)

// Binary bodies for the CRDT wire messages (fabric.BinaryAppender /
// BinaryParser). Op traffic is per-keystroke and state gossip is periodic,
// so both get hand-rolled bodies: uvarint integers and length-prefixed
// strings. The version vector is encoded in sorted site order so equal
// states produce identical bytes.

func appendID(dst []byte, id ID) []byte {
	dst = fabric.AppendUvarint(dst, id.N)
	return fabric.AppendString(dst, id.Site)
}

func readID(r *fabric.Reader) ID {
	var id ID
	id.N = r.Uvarint()
	id.Site = r.String()
	return id
}

func appendVC(dst []byte, vv vclock.VC) []byte {
	sites := make([]string, 0, len(vv))
	for site := range vv {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	dst = fabric.AppendUvarint(dst, uint64(len(sites)))
	for _, site := range sites {
		dst = fabric.AppendString(dst, site)
		dst = fabric.AppendUvarint(dst, vv[site])
	}
	return dst
}

func readVC(r *fabric.Reader) vclock.VC {
	n := r.Count("vector entries", 2) // an empty site and its counter
	vv := vclock.New()
	for i := 0; i < n && r.Err() == nil; i++ {
		site := r.String()
		vv[site] = r.Uvarint()
	}
	return vv
}

// appendOp writes a sequence op, then three zero bytes where older trees
// wrote a set element, its dots and a counter delta: the layout stays the
// one those trees read, and readOp refuses an op that sets any of them.
func appendOp(dst []byte, op Op) ([]byte, error) {
	if op.Kind != OpSeqInsert && op.Kind != OpSeqDelete {
		return nil, errNotSeqOp
	}
	dst = append(dst, byte(op.Kind))
	dst = fabric.AppendString(dst, op.Site)
	dst = fabric.AppendUvarint(dst, op.Seq)
	dst = appendID(dst, op.ID)
	dst = appendID(dst, op.After)
	dst = fabric.AppendUvarint(dst, uint64(uint32(op.Ch)))
	return append(dst, 0, 0, 0), nil
}

func readOp(r *fabric.Reader) (Op, error) {
	var op Op
	op.Kind = OpKind(r.Byte())
	op.Site = r.String()
	op.Seq = r.Uvarint()
	op.ID = readID(r)
	op.After = readID(r)
	op.Ch = rune(uint32(r.Uvarint()))
	if (r.Byte()|r.Byte()|r.Byte() != 0 || op.Kind != OpSeqInsert && op.Kind != OpSeqDelete) && r.Err() == nil {
		return op, errNotSeqOp
	}
	return op, nil
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgOp) AppendBinary(dst []byte) ([]byte, error) {
	return appendOp(fabric.AppendString(dst, m.Doc), m.Op)
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgOp) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	var err error
	if m.Op, err = readOp(&r); err != nil {
		return err
	}
	return r.Done(TagOp)
}

func appendSeqState(dst []byte, st *SeqState) []byte {
	dst = fabric.AppendUvarint(dst, uint64(len(st.Nodes)))
	for _, n := range st.Nodes {
		dst = appendID(dst, n.ID)
		dst = appendID(dst, n.After)
		dst = fabric.AppendUvarint(dst, uint64(uint32(n.Ch)))
		del := byte(0)
		if n.Deleted {
			del = 1
		}
		dst = append(dst, del)
	}
	return appendVC(dst, st.VV)
}

func readSeqState(r *fabric.Reader) *SeqState {
	n := r.Count("nodes", 6) // two IDs, Ch and the tombstone flag
	st := &SeqState{Nodes: make([]SeqNode, 0, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		var node SeqNode
		node.ID = readID(r)
		node.After = readID(r)
		node.Ch = rune(uint32(r.Uvarint()))
		node.Deleted = r.Byte() == 1
		st.Nodes = append(st.Nodes, node)
	}
	st.VV = readVC(r)
	return st
}

// stateSeq is the state-kind byte of a sequence state, the one state there
// is. Kinds 2 and 3 carried the set and counter states of older trees: a
// body with either is refused as an unknown kind.
const stateSeq = 1

var errNotSeqOp = errors.New("crdt: not a sequence op")

// AppendBinary implements fabric.BinaryAppender.
func (m MsgState) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	if m.Seq == nil {
		return nil, errors.New("crdt: a state message without a state")
	}
	return appendSeqState(append(dst, stateSeq), m.Seq), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgState) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	if kind := r.Byte(); kind != stateSeq && r.Err() == nil {
		return fmt.Errorf("crdt: unknown state kind %d", kind)
	}
	m.Seq = readSeqState(&r) // after a failed read it reads empty, and Done reports the error
	return r.Done(TagState)
}
