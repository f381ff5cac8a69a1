package crdt

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/vclock"
)

// Binary bodies for the CRDT wire messages (fabric.BinaryAppender /
// BinaryParser). Op traffic is per-keystroke and state gossip is periodic,
// so both get hand-rolled bodies: uvarint integers, length-prefixed
// strings, zigzag varints for signed deltas. Map-backed state is encoded
// in sorted key order so equal states produce identical bytes — the
// convergence checks in chaos and the fuzzers compare encodings directly.

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

func appendIDs(dst []byte, ids []ID) []byte {
	dst = fabric.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendID(dst, id)
	}
	return dst
}

func readIDs(r *fabric.Reader) []ID {
	n := r.Count("ids", 2) // N and an empty Site
	if n == 0 {
		return nil
	}
	ids := make([]ID, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		ids = append(ids, readID(r))
	}
	return ids
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

func appendOp(dst []byte, op Op) []byte {
	dst = append(dst, byte(op.Kind))
	dst = fabric.AppendString(dst, op.Site)
	dst = fabric.AppendUvarint(dst, op.Seq)
	dst = appendID(dst, op.ID)
	dst = appendID(dst, op.After)
	dst = fabric.AppendUvarint(dst, uint64(uint32(op.Ch)))
	dst = fabric.AppendString(dst, op.Elem)
	dst = appendIDs(dst, op.Dots)
	return binary.AppendVarint(dst, op.Delta)
}

func readOp(r *fabric.Reader) Op {
	var op Op
	op.Kind = OpKind(r.Byte())
	op.Site = r.String()
	op.Seq = r.Uvarint()
	op.ID = readID(r)
	op.After = readID(r)
	op.Ch = rune(uint32(r.Uvarint()))
	op.Elem = r.String()
	op.Dots = readIDs(r)
	op.Delta = r.Varint()
	return op
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgOp) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	return appendOp(dst, m.Op), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgOp) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	m.Op = readOp(&r)
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

func appendSetState(dst []byte, st *SetState) []byte {
	elems := make([]string, 0, len(st.Elems))
	for elem := range st.Elems {
		elems = append(elems, elem)
	}
	sort.Strings(elems)
	dst = fabric.AppendUvarint(dst, uint64(len(elems)))
	for _, elem := range elems {
		dst = fabric.AppendString(dst, elem)
		dst = appendIDs(dst, st.Elems[elem])
	}
	dst = appendIDs(dst, st.Removed)
	return appendVC(dst, st.VV)
}

func readSetState(r *fabric.Reader) *SetState {
	n := r.Count("elements", 2) // an empty name and an empty dot list
	st := &SetState{Elems: make(map[string][]ID, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		elem := r.String()
		st.Elems[elem] = readIDs(r)
	}
	st.Removed = readIDs(r)
	st.VV = readVC(r)
	return st
}

func appendCtrState(dst []byte, st *CtrState) []byte {
	dst = appendSiteCounts(dst, st.Pos)
	dst = appendSiteCounts(dst, st.Neg)
	return appendVC(dst, st.VV)
}

func appendSiteCounts(dst []byte, m map[string]uint64) []byte {
	sites := make([]string, 0, len(m))
	for site := range m {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	dst = fabric.AppendUvarint(dst, uint64(len(sites)))
	for _, site := range sites {
		dst = fabric.AppendString(dst, site)
		dst = fabric.AppendUvarint(dst, m[site])
	}
	return dst
}

func readSiteCounts(r *fabric.Reader) map[string]uint64 {
	n := r.Count("site counts", 2) // an empty site and its count
	m := make(map[string]uint64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		site := r.String()
		m[site] = r.Uvarint()
	}
	return m
}

func readCtrState(r *fabric.Reader) *CtrState {
	st := &CtrState{}
	st.Pos = readSiteCounts(r)
	st.Neg = readSiteCounts(r)
	st.VV = readVC(r)
	return st
}

// State-kind discriminators in the MsgState binary body.
const (
	stateSeq = 1
	stateSet = 2
	stateCtr = 3
)

// AppendBinary implements fabric.BinaryAppender.
func (m MsgState) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	switch {
	case m.Seq != nil:
		return appendSeqState(append(dst, stateSeq), m.Seq), nil
	case m.Set != nil:
		return appendSetState(append(dst, stateSet), m.Set), nil
	case m.Ctr != nil:
		return appendCtrState(append(dst, stateCtr), m.Ctr), nil
	default:
		return nil, fmt.Errorf("crdt: state message carries no state")
	}
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgState) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	switch kind := r.Byte(); kind {
	case stateSeq:
		m.Seq = readSeqState(&r)
	case stateSet:
		m.Set = readSetState(&r)
	case stateCtr:
		m.Ctr = readCtrState(&r)
	default:
		if r.Err() == nil {
			return fmt.Errorf("crdt: unknown state kind %d", kind)
		}
	}
	return r.Done(TagState)
}
