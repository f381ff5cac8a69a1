package session

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/fabric"
)

// Binary bodies for the session wire messages (fabric.BinaryAppender /
// BinaryParser). Session traffic is the chattiest in the system — every
// post, push and poll crosses the wire — so it gets hand-rolled bodies:
// uvarint integers and length-prefixed strings, no reflection, no
// intermediate buffers. Field order is fixed and versioning rides on the
// fabric frame header: frame version 2 is the item-run layout below, and a
// version-1 frame, which wrote every item of a run in full, is refused.
//
// An item run (the items of a push or poll answer, a join ack's backlog) is
// a count and then its items. The first item is written in full: Seq, From,
// Kind, Body, At. Each later one says only what the item before it did not:
//
//	Seq  uvarint, its difference from the previous item's (mod 2⁶⁴)
//	From a string reference (below)
//	Kind a string reference
//	Body length-prefixed, as in the first item
//	At   zigzag varint, its difference from the previous item's
//
// The run keeps a table of the last runTable distinct From and Kind strings
// it has written, the first item's included, filled slot by slot and then
// overwritten oldest first. A reference is one uvarint v: below runTable it
// names table slot v, which must be filled; from runTable up it is a new
// string of v-runTable bytes that follows, enters the table and must not
// equal a string the table still holds. So a run has exactly one encoding,
// and a reference decodes to the substring the table already holds: no
// allocation on either side.

// runTable is the number of strings an item run's table holds. A push
// names one or two authors and the kind "eng/op".
const runTable = 8

// runStrings is an item run's string table, on the stack of the one
// appendItems or readItems call that fills it.
type runStrings struct {
	s [runTable]string
	n int // strings entered so far; slot n%runTable is the next to fill
}

// find returns the slot holding s, or -1.
func (t *runStrings) find(s string) int {
	for i := range min(t.n, runTable) {
		if t.s[i] == s {
			return i
		}
	}
	return -1
}

// enter puts s in the next slot.
func (t *runStrings) enter(s string) {
	t.s[t.n%runTable] = s
	t.n++
}

// first enters the first item's From and Kind, each unless it is there.
func (t *runStrings) first(it Item) {
	t.enter(it.From)
	if t.find(it.Kind) < 0 {
		t.enter(it.Kind)
	}
}

// appendRef writes s as a reference to its slot, or as a new string.
func (t *runStrings) appendRef(dst []byte, s string) []byte {
	if i := t.find(s); i >= 0 {
		return fabric.AppendUvarint(dst, uint64(i))
	}
	t.enter(s)
	dst = fabric.AppendUvarint(dst, runTable+uint64(len(s)))
	return append(dst, s...)
}

// readRef reads what appendRef wrote. A reference to an empty slot, or a new
// string the table already holds, is an error: no appender writes either.
func (t *runStrings) readRef(r *fabric.Reader) (string, error) {
	v := r.Uvarint()
	if v < runTable {
		if int(v) >= t.n && r.Err() == nil {
			return "", fmt.Errorf("session: item run refers to empty string slot %d of %d", v, t.n)
		}
		return t.s[v], nil
	}
	s := r.Raw(v - runTable)
	if t.find(s) >= 0 && r.Err() == nil {
		return "", fmt.Errorf("session: item run writes %q again instead of referring to it", s)
	}
	t.enter(s)
	return s, nil
}

// appendItems writes items, or segs when it is set, as one item run: a run
// in segments encodes byte for byte as the same run in one slice.
func appendItems(dst []byte, items []Item, segs *[][]Item) []byte {
	run := [][]Item{items}
	if segs != nil {
		run = *segs
	}
	n := 0
	for _, s := range run {
		n += len(s)
	}
	dst = fabric.AppendUvarint(dst, uint64(n))
	var prev Item
	var tab runStrings
	for _, s := range run {
		for _, it := range s {
			if tab.n == 0 { // the first item, in full; tab.first enters at least its From
				dst = fabric.AppendUvarint(dst, it.Seq)
				dst = fabric.AppendString(dst, it.From)
				dst = fabric.AppendString(dst, it.Kind)
				dst = fabric.AppendString(dst, it.Body)
				dst = fabric.AppendUvarint(dst, uint64(it.At))
				tab.first(it)
			} else {
				dst = fabric.AppendUvarint(dst, it.Seq-prev.Seq)
				dst = tab.appendRef(dst, it.From)
				dst = tab.appendRef(dst, it.Kind)
				dst = fabric.AppendString(dst, it.Body)
				dst = binary.AppendVarint(dst, int64(it.At-prev.At))
			}
			prev = it
		}
	}
	return dst
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

func readItems(r *fabric.Reader) ([]Item, error) {
	n := r.Count("items", 5) // five fields, a byte each at the least
	if n == 0 {
		return nil, nil
	}
	it := readItem(r)
	items := append(make([]Item, 0, n), it)
	var tab runStrings
	tab.first(it)
	for len(items) < n && r.Err() == nil {
		var err error
		it.Seq += r.Uvarint()
		if it.From, err = tab.readRef(r); err != nil {
			return nil, err
		}
		if it.Kind, err = tab.readRef(r); err != nil {
			return nil, err
		}
		it.Body = r.String()
		it.At += time.Duration(r.Varint())
		items = append(items, it)
	}
	return items, nil
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgJoin) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendString(dst, m.From)
	dst = fabric.AppendUvarint(dst, m.Since)
	return fabric.AppendUvarint(dst, uint64(m.State)), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgJoin) ParseBinary(r fabric.Reader) error {
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
	return appendItems(dst, m.Backlog, m.segs), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgJoinAck) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	m.Mode = Mode(r.Uvarint())
	if n := r.Count("members", 1); n > 0 { // an empty name is one byte
		m.Members = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Members = append(m.Members, r.String())
		}
	}
	var err error
	if m.Backlog, err = readItems(&r); err != nil {
		return err
	}
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
func (m *MsgPost) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	m.From = r.String()
	m.Kind = r.String()
	m.Body = r.String()
	return r.Done(tagPost)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgItems) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	return appendItems(dst, m.Items, m.segs), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgItems) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	var err error
	if m.Items, err = readItems(&r); err != nil {
		return err
	}
	return r.Done(tagItems)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgPoll) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendString(dst, m.From)
	return fabric.AppendUvarint(dst, m.Since), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgPoll) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	m.From = r.String()
	m.Since = r.Uvarint()
	return r.Done(tagPoll)
}

// AppendBinary implements fabric.BinaryAppender.
func (m MsgPresence) AppendBinary(dst []byte) ([]byte, error) {
	dst = fabric.AppendString(dst, m.Doc)
	dst = fabric.AppendString(dst, m.From)
	return fabric.AppendUvarint(dst, uint64(m.State)), nil
}

// ParseBinary implements fabric.BinaryParser.
func (m *MsgPresence) ParseBinary(r fabric.Reader) error {
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
func (m *MsgLeave) ParseBinary(r fabric.Reader) error {
	m.Doc = r.String()
	m.From = r.String()
	return r.Done(tagLeave)
}
