package session

import (
	"time"

	"repro/internal/fabric"
)

// Binary bodies for the session wire messages (fabric.BinaryAppender /
// BinaryParser). Session traffic is the chattiest in the system — every
// post, push and poll crosses the wire — so it gets hand-rolled bodies
// instead of the JSON fallback: uvarint integers and length-prefixed
// strings, no reflection, no intermediate buffers. Field order is fixed
// and versioning rides on the fabric frame header.

func appendItem(dst []byte, it Item) []byte {
	dst = fabric.AppendUvarint(dst, it.Seq)
	dst = fabric.AppendString(dst, it.From)
	dst = fabric.AppendString(dst, it.Kind)
	dst = fabric.AppendString(dst, it.Body)
	return fabric.AppendUvarint(dst, uint64(it.At))
}

func readItem(r *fabric.Reader) Item {
	var it Item
	it.Seq = r.Uvarint()
	it.From = r.String()
	it.Kind = r.String()
	it.Body = r.String()
	it.At = time.Duration(r.Uvarint())
	return it
}

func appendItems(dst []byte, items []Item) []byte {
	dst = fabric.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = appendItem(dst, it)
	}
	return dst
}

func readItems(r *fabric.Reader) []Item {
	n := r.Count("items", 5) // five fields, a byte each at the least
	if n == 0 {
		return nil
	}
	items := make([]Item, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		items = append(items, readItem(r))
	}
	return items
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgJoin) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendString(dst, m.From)
	dst = fabric.AppendUvarint(dst, m.Since)
	return fabric.AppendUvarint(dst, uint64(m.State)), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgJoin) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.From = r.String()
	m.Since = r.Uvarint()
	m.State = Presence(r.Uvarint())
	return r.Done(tagJoin)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgJoinAck) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendUvarint(dst, uint64(m.Mode))
	dst = fabric.AppendUvarint(dst, uint64(len(m.Members)))
	for _, id := range m.Members {
		dst = fabric.AppendString(dst, id)
	}
	return appendItems(dst, m.Backlog), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgJoinAck) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.Mode = Mode(r.Uvarint())
	if n := r.Count("members", 1); n > 0 { // an empty name is one byte
		m.Members = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Members = append(m.Members, r.String())
		}
	}
	m.Backlog = readItems(&r)
	return r.Done(tagJoinAck)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgPost) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendString(dst, m.From)
	dst = fabric.AppendString(dst, m.Kind)
	return fabric.AppendString(dst, m.Body), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgPost) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.From = r.String()
	m.Kind = r.String()
	m.Body = r.String()
	return r.Done(tagPost)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgItems) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	return appendItems(dst, m.Items), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgItems) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.Items = readItems(&r)
	return r.Done(tagItems)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgPoll) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendString(dst, m.From)
	return fabric.AppendUvarint(dst, m.Since), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgPoll) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.From = r.String()
	m.Since = r.Uvarint()
	return r.Done(tagPoll)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgMode) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	return fabric.AppendUvarint(dst, uint64(m.Mode)), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgMode) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.Mode = Mode(r.Uvarint())
	return r.Done(tagMode)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgPresence) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendString(dst, m.From)
	return fabric.AppendUvarint(dst, uint64(m.State)), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgPresence) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.From = r.String()
	m.State = Presence(r.Uvarint())
	return r.Done(tagPresence)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgLeave) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	return fabric.AppendString(dst, m.From), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgLeave) ParseBinary(data []byte) error {
	r := fabric.NewReader(data)
	m.Doc = r.String()
	m.From = r.String()
	return r.Done(tagLeave)
}
