package group

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/vclock"
)

// The binary body of the group packet (fabric.BinaryAppender /
// BinaryParser). Every field is written in struct order whatever the kind,
// so a zero field costs one byte: uvarint integers, length-prefixed
// strings, a zigzag varint for Size, one presence byte for Body and
// NewView. A Body on the wire is nil or a string, so an RPC or token body
// decodes to what was sent. VC entries go in sorted site order, so equal
// packets encode to equal bytes. A kBatch carries its run inline, each
// inner packet's fields in the same order, and an inner packet may not be
// a batch itself.

const tagPacket = "group/packet"

// minPacketBytes is the shortest packet body: one byte per field.
const minPacketBytes = 19

// Presence bytes of the two optional fields, Body (a string) and NewView.
const (
	absent  = 0
	present = 1
)

var errNestedBatch = errors.New("group: a batched packet carries a batch")

// AppendBinary implements fabric.BinaryAppender.
func (p packet) AppendBinary(dst []byte) ([]byte, error) {
	return appendPacket(dst, &p, false)
}

// ParseBinary implements fabric.BinaryParser.
func (p *packet) ParseBinary(r fabric.Reader) error {
	if err := readPacket(&r, p, false); err != nil {
		return err
	}
	return r.Done(tagPacket)
}

// appendPacket writes p's fields; a batch writes its inner packets the same
// way, inline, with nested set so that they may not be batches.
func appendPacket(dst []byte, p *packet, nested bool) ([]byte, error) {
	dst = fabric.AppendUvarint(dst, uint64(p.Kind))
	dst = fabric.AppendString(dst, p.From)
	dst = fabric.AppendUvarint(dst, p.ViewID)
	switch body := p.Body.(type) {
	case nil:
		dst = append(dst, absent)
	case string:
		dst = fabric.AppendString(append(dst, present), body)
	default:
		return nil, fmt.Errorf("group: wire body must be nil or a string, not %T", p.Body)
	}
	dst = binary.AppendVarint(dst, int64(p.Size))
	dst = fabric.AppendUvarint(dst, p.SenderSeq)
	dst = appendVC(dst, p.VC)
	dst = appendMsgID(dst, p.MsgID)
	dst = fabric.AppendUvarint(dst, p.GlobalSeq)
	if p.NewView == nil {
		dst = append(dst, absent)
	} else {
		dst = fabric.AppendUvarint(append(dst, present), p.NewView.ID)
		dst = fabric.AppendUvarint(dst, uint64(len(p.NewView.Members)))
		for _, id := range p.NewView.Members {
			dst = fabric.AppendString(dst, id)
		}
	}
	dst = fabric.AppendUvarint(dst, p.CallID)
	dst = fabric.AppendString(dst, p.Op)
	isError := byte(0)
	if p.IsError {
		isError = 1
	}
	dst = fabric.AppendString(append(dst, isError), p.ErrText)
	dst = fabric.AppendUvarint(dst, p.NackFrom)
	dst = fabric.AppendUvarint(dst, p.NackTo)
	if nested && len(p.Msgs) > 0 {
		return nil, errNestedBatch
	}
	dst = fabric.AppendUvarint(dst, uint64(len(p.Msgs)))
	for _, q := range p.Msgs {
		var err error
		if dst, err = appendPacket(dst, q, true); err != nil {
			return nil, err
		}
	}
	dst = fabric.AppendUvarint(dst, uint64(len(p.MsgIDs)))
	for _, id := range p.MsgIDs {
		dst = appendMsgID(dst, id)
	}
	return dst, nil
}

// readPacket reads the fields appendPacket wrote into p. A nested packet
// fails as soon as it declares inner packets of its own, before reading
// any, so the walk is never more than two packets deep.
func readPacket(r *fabric.Reader, p *packet, nested bool) error {
	p.Kind = kind(r.Uvarint())
	p.From = r.String()
	p.ViewID = r.Uvarint()
	switch b := r.Byte(); b {
	case absent:
	case present:
		p.Body = r.String()
	default:
		return fmt.Errorf("group: unknown body presence byte %d", b)
	}
	p.Size = int(r.Varint())
	p.SenderSeq = r.Uvarint()
	p.VC = readVC(r)
	p.MsgID = readMsgID(r)
	p.GlobalSeq = r.Uvarint()
	switch b := r.Byte(); b {
	case absent:
	case present:
		v := &View{ID: r.Uvarint()}
		if n := r.Count("view members", 1); n > 0 { // an empty id is one byte
			v.Members = make([]string, 0, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				v.Members = append(v.Members, r.String())
			}
		}
		p.NewView = v
	default:
		return fmt.Errorf("group: unknown view presence byte %d", b)
	}
	p.CallID = r.Uvarint()
	p.Op = r.String()
	p.IsError = r.Byte() != 0
	p.ErrText = r.String()
	p.NackFrom = r.Uvarint()
	p.NackTo = r.Uvarint()
	if n := r.Count("batched packets", minPacketBytes); n > 0 {
		if nested {
			return errNestedBatch
		}
		p.Msgs = make([]*packet, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			q := &packet{}
			if err := readPacket(r, q, true); err != nil {
				return err
			}
			p.Msgs = append(p.Msgs, q)
		}
	}
	if n := r.Count("message ids", 2); n > 0 { // an empty origin and its number
		p.MsgIDs = make([]msgID, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			p.MsgIDs = append(p.MsgIDs, readMsgID(r))
		}
	}
	return nil
}

func appendMsgID(dst []byte, id msgID) []byte {
	dst = fabric.AppendString(dst, id.Origin)
	return fabric.AppendUvarint(dst, id.N)
}

func readMsgID(r *fabric.Reader) msgID {
	var id msgID
	id.Origin = r.String()
	id.N = r.Uvarint()
	return id
}

func appendVC(dst []byte, vc vclock.VC) []byte {
	sites := make([]string, 0, len(vc))
	for site := range vc {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	dst = fabric.AppendUvarint(dst, uint64(len(sites)))
	for _, site := range sites {
		dst = fabric.AppendString(dst, site)
		dst = fabric.AppendUvarint(dst, vc[site])
	}
	return dst
}

// readVC reads a vector timestamp; an empty one is nil, as on a packet
// that was never stamped.
func readVC(r *fabric.Reader) vclock.VC {
	n := r.Count("vector entries", 2) // an empty site and its counter
	if n == 0 {
		return nil
	}
	vc := make(vclock.VC, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		site := r.String()
		vc[site] = r.Uvarint()
	}
	return vc
}
