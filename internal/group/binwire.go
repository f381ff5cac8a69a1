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
// BinaryParser): Kind, a uvarint presence mask with one bit per field, then
// only the fields whose bit is set, in bit order. A field is absent when it
// is zero, so a packet pays for the fields its kind uses: the fields of a
// data or an order packet have the low seven bits, and their mask is one
// byte. Integers are uvarints (Size a zigzag varint) and strings are
// length-prefixed. A data packet's MsgID.Origin is its From, so a bit says
// so and the origin is not written twice; IsError is just its bit. A Body
// on the wire is nil or a string, so an RPC or token body decodes to what
// was sent, and "" is a present Body. VC entries go in strictly increasing
// site order. A kBatch carries its run inline, each inner packet through
// the same walk, and an inner packet may not be a batch itself.
//
// Every accepted body is the one encoding of its packet: the parser
// rejects unknown bits, a set bit whose field is zero (an empty count
// included), the origin bit without a MsgID or with an origin that is not
// From, and VC sites out of order, so equal packets are equal bytes.
//
// Bit 9 carried a view change's view, which no member sends now: it stays
// reserved, so a body that sets it is refused like any unknown bit.
//
// The tag names this layout and the protocol it carries. A frame from a
// tree that wrote every field (tag "group/packet"), or from one whose
// sequencer protocol broadcast data and sent body-less orders to all (tag
// "group/pkt/v2", the same body layout), carries a tag no codec here
// registers, so it is a counted drop, never a misparse.

const tagPacket = "group/pkt/v3"

// minPacketBytes is the shortest packet body: Kind and the mask, one byte
// each, with every bit clear.
const minPacketBytes = 2

// Presence bits, in wire order.
const (
	hasFrom uint64 = 1 << iota
	hasViewID
	hasBody
	hasSize
	hasMsgID
	originIsFrom // MsgID.Origin equals From and is not written
	hasGlobalSeq
	hasSenderSeq
	hasVC
	retiredView // reserved: a view change's view
	hasCallID
	hasOp
	isError
	hasErrText
	hasNackFrom
	hasNackTo
	hasMsgs
	hasMsgIDs

	knownBits = (hasMsgIDs<<1 - 1) &^ retiredView
)

var (
	errNestedBatch  = errors.New("group: a batched packet carries a batch")
	errNotCanonical = errors.New("group: packet body is not its canonical encoding")
)

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
		bit(p.GlobalSeq != 0, hasGlobalSeq) |
		bit(p.SenderSeq != 0, hasSenderSeq) |
		bit(len(p.VC) > 0, hasVC) |
		bit(p.CallID != 0, hasCallID) |
		bit(p.Op != "", hasOp) |
		bit(p.IsError, isError) |
		bit(p.ErrText != "", hasErrText) |
		bit(p.NackFrom != 0, hasNackFrom) |
		bit(p.NackTo != 0, hasNackTo) |
		bit(len(p.Msgs) > 0, hasMsgs) |
		bit(len(p.MsgIDs) > 0, hasMsgIDs)
}

// appendPacket writes p's kind, mask and present fields; a batch writes its
// inner packets the same way, inline, with nested set so that they may not
// be batches.
func appendPacket(dst []byte, p *packet, nested bool) ([]byte, error) {
	dst = fabric.AppendUvarint(dst, uint64(p.Kind))
	mask := presence(p)
	if nested && mask&hasMsgs != 0 {
		return nil, errNestedBatch
	}
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
	if mask&hasSenderSeq != 0 {
		dst = fabric.AppendUvarint(dst, p.SenderSeq)
	}
	if mask&hasVC != 0 {
		dst = appendVC(dst, p.VC)
	}
	if mask&hasCallID != 0 {
		dst = fabric.AppendUvarint(dst, p.CallID)
	}
	if mask&hasOp != 0 {
		dst = fabric.AppendString(dst, p.Op)
	}
	if mask&hasErrText != 0 {
		dst = fabric.AppendString(dst, p.ErrText)
	}
	if mask&hasNackFrom != 0 {
		dst = fabric.AppendUvarint(dst, p.NackFrom)
	}
	if mask&hasNackTo != 0 {
		dst = fabric.AppendUvarint(dst, p.NackTo)
	}
	if mask&hasMsgs != 0 {
		dst = fabric.AppendUvarint(dst, uint64(len(p.Msgs)))
		for _, q := range p.Msgs {
			var err error
			if dst, err = appendPacket(dst, q, true); err != nil {
				return nil, err
			}
		}
	}
	if mask&hasMsgIDs != 0 {
		dst = fabric.AppendUvarint(dst, uint64(len(p.MsgIDs)))
		for _, id := range p.MsgIDs {
			dst = appendMsgID(dst, id)
		}
	}
	return dst, nil
}

// readPacket reads the fields appendPacket wrote into p, then checks that
// they are the ones the mask says are present and no others. A nested
// packet fails as soon as its mask declares inner packets of its own,
// before reading any field, so the walk is never more than two packets
// deep.
func readPacket(r *fabric.Reader, p *packet, nested bool) error {
	p.Kind = kind(r.Uvarint())
	mask := r.Uvarint()
	if unknown := mask &^ knownBits; unknown != 0 {
		return fmt.Errorf("group: unknown presence bits %#x", unknown)
	}
	if nested && mask&hasMsgs != 0 {
		return errNestedBatch
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
	if mask&hasSenderSeq != 0 {
		p.SenderSeq = r.Uvarint()
	}
	if mask&hasVC != 0 {
		vc, err := readVC(r)
		if err != nil {
			return err
		}
		p.VC = vc
	}
	if mask&hasCallID != 0 {
		p.CallID = r.Uvarint()
	}
	if mask&hasOp != 0 {
		p.Op = r.String()
	}
	p.IsError = mask&isError != 0
	if mask&hasErrText != 0 {
		p.ErrText = r.String()
	}
	if mask&hasNackFrom != 0 {
		p.NackFrom = r.Uvarint()
	}
	if mask&hasNackTo != 0 {
		p.NackTo = r.Uvarint()
	}
	if mask&hasMsgs != 0 {
		if n := r.Count("batched packets", minPacketBytes); n > 0 {
			p.Msgs = make([]*packet, 0, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				q := &packet{}
				if err := readPacket(r, q, true); err != nil {
					return err
				}
				p.Msgs = append(p.Msgs, q)
			}
		}
	}
	if mask&hasMsgIDs != 0 {
		if n := r.Count("message ids", 2); n > 0 { // an empty origin and its number
			p.MsgIDs = make([]msgID, 0, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				p.MsgIDs = append(p.MsgIDs, readMsgID(r))
			}
		}
	}
	// A set bit whose field read as zero, or the origin bit where the
	// origin is not From, makes a mask the encoder would not have written.
	// A read that failed is Done's to report.
	if r.Err() == nil && presence(p) != mask {
		return fmt.Errorf("%w: mask %#x, fields %#x", errNotCanonical, mask, presence(p))
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

// readVC reads a vector timestamp whose sites must strictly increase, so a
// site cannot appear twice. A count of zero reads as nil, which the mask
// check then rejects.
func readVC(r *fabric.Reader) (vclock.VC, error) {
	n := r.Count("vector entries", 2) // an empty site and its counter
	if n == 0 {
		return nil, nil
	}
	vc := make(vclock.VC, n)
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		site := r.String()
		if i > 0 && site <= prev && r.Err() == nil {
			return nil, fmt.Errorf("group: vector site %q follows %q", site, prev)
		}
		vc[site] = r.Uvarint()
		prev = site
	}
	return vc, nil
}
