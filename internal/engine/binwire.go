package engine

import (
	"repro/internal/fabric"
	"repro/internal/ot"
)

// Binary bodies for the OT engine messages (fabric.BinaryAppender /
// BinaryParser), so the shootout's bytes-on-wire comparison measures both
// engines over the same hand-rolled frame format.

func appendOTOp(dst []byte, op ot.Op) []byte {
	dst = fabric.AppendUvarint(dst, uint64(op.Kind))
	dst = fabric.AppendUvarint(dst, uint64(op.Pos))
	dst = fabric.AppendUvarint(dst, uint64(uint32(op.Ch)))
	return fabric.AppendString(dst, op.Site)
}

func readOTOp(r *fabric.Reader) ot.Op {
	var op ot.Op
	op.Kind = ot.Kind(r.Uvarint())
	op.Pos = int(r.Uvarint())
	op.Ch = rune(uint32(r.Uvarint()))
	op.Site = r.String()
	return op
}

func appendCommitted(dst []byte, cm ot.Committed) []byte {
	dst = appendOTOp(dst, cm.Op)
	dst = fabric.AppendUvarint(dst, uint64(cm.Rev))
	dst = fabric.AppendString(dst, cm.Site)
	return fabric.AppendUvarint(dst, cm.Seq)
}

func readCommitted(r *fabric.Reader) ot.Committed {
	var cm ot.Committed
	cm.Op = readOTOp(r)
	cm.Rev = int(r.Uvarint())
	cm.Site = r.String()
	cm.Seq = r.Uvarint()
	return cm
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgSubmit) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = appendOTOp(dst, m.Sub.Op)
	dst = fabric.AppendUvarint(dst, uint64(m.Sub.Base))
	dst = fabric.AppendString(dst, m.Sub.Site)
	return fabric.AppendUvarint(dst, m.Sub.Seq), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgSubmit) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.Sub.Op = readOTOp(&r)
	m.Sub.Base = int(r.Uvarint())
	m.Sub.Site = r.String()
	m.Sub.Seq = r.Uvarint()
	return r.Done(tagSubmit)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgCommit) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	return appendCommitted(dst, m.C), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgCommit) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.C = readCommitted(&r)
	return r.Done(tagCommit)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgPull) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	return fabric.AppendUvarint(dst, uint64(m.Base)), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgPull) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.Base = int(r.Uvarint())
	return r.Done(tagPull)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgCommits) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendUvarint(dst, uint64(len(m.Cs)))
	for _, cm := range m.Cs {
		dst = appendCommitted(dst, cm)
	}
	return dst, nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgCommits) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	if n := r.Count("commits", 7); n > 0 { // a 4-byte op, Rev, Site, Seq
		m.Cs = make([]ot.Committed, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Cs = append(m.Cs, readCommitted(&r))
		}
	}
	return r.Done(tagCommits)
}
