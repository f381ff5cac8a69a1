package group

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/fabric"
)

// The binary body of the group packet (fabric.BinaryAppender /
// BinaryParser): Kind, a uvarint presence mask with one bit per field, then
// only the fields whose bit is set, in bit order. A field is absent when it
// is zero, so a packet pays for the fields its kind uses: every field the
// wire carries has one of the low seven bits, and the mask is one byte.
// Integers are uvarints (Size a zigzag varint) and strings are
// length-prefixed. A data packet's MsgID.Origin is its From, so a bit says
// so and the origin is not written twice. A Body on the wire is nil or a
// string, so a token body decodes to what was sent, and "" is a present
// Body.
//
// The wire carries what the sequencer ordering sends over TCP: data to the
// sequencer, its orders for one message, and the token orderings' packets.
// The fields of FIFO and causal ordering (SenderSeq, VC), of group RPC
// (CallID, Op, IsError, ErrText), of FIFO repair (NackFrom, NackTo) and of
// batching (Msgs, MsgIDs) are exchanged only by members in one process,
// over netsim: the encoder refuses a packet that sets any of them, and
// bits 7 to 17, which carried them and a view change's view, stay reserved,
// so a body that sets one is refused like any unknown bit.
//
// Every accepted body is the one encoding of its packet: the parser
// rejects unknown bits, a set bit whose field is zero, and the origin bit
// without a MsgID or with an origin that is not From, so equal packets are
// equal bytes.
//
// The tag names this layout and the protocol it carries. A frame from a
// tree that wrote every field (tag "group/packet"), or from one whose
// sequencer protocol broadcast data and sent body-less orders to all (tag
// "group/pkt/v2", the same body layout), carries a tag no codec here
// registers, so it is a counted drop, never a misparse.

const tagPacket = "group/pkt/v3"

// Presence bits, in wire order.
const (
	hasFrom uint64 = 1 << iota
	hasViewID
	hasBody
	hasSize
	hasMsgID
	originIsFrom // MsgID.Origin equals From and is not written
	hasGlobalSeq

	knownBits = hasGlobalSeq<<1 - 1
)

var (
	errInProcess    = errors.New("group: packet sets a field only in-process members exchange")
	errNotCanonical = errors.New("group: packet body is not its canonical encoding")
)

// AppendBinary implements fabric.BinaryAppender.
func (p packet) AppendBinary(dst []byte) ([]byte, error) {
	return appendPacket(dst, &p)
}

// ParseBinary implements fabric.BinaryParser.
func (p *packet) ParseBinary(r fabric.Reader) error {
	if err := readPacket(&r, p); err != nil {
		return err
	}
	return r.Done(tagPacket)
}

// bit is b when on, else 0.
func bit(on bool, b uint64) uint64 {
	if on {
		return b
	}
	return 0
}

// presence is p's mask: a bit for every non-zero field, in wire order.
func presence(p *packet) uint64 {
	return bit(p.From != "", hasFrom) |
		bit(p.ViewID != 0, hasViewID) |
		bit(p.Body != nil, hasBody) |
		bit(p.Size != 0, hasSize) |
		bit(p.MsgID != msgID{}, hasMsgID) |
		bit(p.MsgID != msgID{} && p.MsgID.Origin == p.From, originIsFrom) |
		bit(p.GlobalSeq != 0, hasGlobalSeq)
}

// inProcess reports whether p sets a field the wire does not carry.
func inProcess(p *packet) bool {
	return p.SenderSeq != 0 || len(p.VC) > 0 || p.CallID != 0 || p.Op != "" || p.IsError ||
		p.ErrText != "" || p.NackFrom != 0 || p.NackTo != 0 || len(p.Msgs) > 0 || len(p.MsgIDs) > 0
}

// appendPacket writes p's kind, mask and present fields.
func appendPacket(dst []byte, p *packet) ([]byte, error) {
	if inProcess(p) {
		return nil, errInProcess
	}
	dst = fabric.AppendUvarint(dst, uint64(p.Kind))
	mask := presence(p)
	dst = fabric.AppendUvarint(dst, mask)
	if mask&hasFrom != 0 {
		dst = fabric.AppendString(dst, p.From)
	}
	if mask&hasViewID != 0 {
		dst = fabric.AppendUvarint(dst, p.ViewID)
	}
	if mask&hasBody != 0 {
		body, ok := p.Body.(string)
		if !ok {
			return nil, fmt.Errorf("group: wire body must be nil or a string, not %T", p.Body)
		}
		dst = fabric.AppendString(dst, body)
	}
	if mask&hasSize != 0 {
		dst = binary.AppendVarint(dst, int64(p.Size))
	}
	if mask&hasMsgID != 0 {
		if mask&originIsFrom == 0 {
			dst = fabric.AppendString(dst, p.MsgID.Origin)
		}
		dst = fabric.AppendUvarint(dst, p.MsgID.N)
	}
	if mask&hasGlobalSeq != 0 {
		dst = fabric.AppendUvarint(dst, p.GlobalSeq)
	}
	return dst, nil
}

// readPacket reads the fields appendPacket wrote into p, then checks that
// they are the ones the mask says are present and no others.
func readPacket(r *fabric.Reader, p *packet) error {
	p.Kind = kind(r.Uvarint())
	mask := r.Uvarint()
	if unknown := mask &^ knownBits; unknown != 0 {
		return fmt.Errorf("group: unknown presence bits %#x", unknown)
	}
	if mask&hasFrom != 0 {
		p.From = r.String()
	}
	if mask&hasViewID != 0 {
		p.ViewID = r.Uvarint()
	}
	if mask&hasBody != 0 {
		p.Body = r.String()
	}
	if mask&hasSize != 0 {
		p.Size = int(r.Varint())
	}
	if mask&hasMsgID != 0 {
		if mask&originIsFrom != 0 {
			p.MsgID.Origin = p.From
		} else {
			p.MsgID.Origin = r.String()
		}
		p.MsgID.N = r.Uvarint()
	}
	if mask&hasGlobalSeq != 0 {
		p.GlobalSeq = r.Uvarint()
	}
	// A set bit whose field read as zero, or the origin bit where the
	// origin is not From, makes a mask the encoder would not have written.
	// A read that failed is Done's to report.
	if r.Err() == nil && presence(p) != mask {
		return fmt.Errorf("%w: mask %#x, fields %#x", errNotCanonical, mask, presence(p))
	}
	return nil
}
