package fabric

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
)

// BinaryCodec is the allocation-conscious alternative to the JSON envelope:
// a length-prefixed binary frame instead of nested JSON documents. It
// shares a registry with a JSON *Codec, so the same Register calls serve
// both, and codecs are selected per endpoint (FromTransport takes either).
//
// Frame layout:
//
//	[0]  magic 0xC5
//	[1]  version (1)
//	[2]  body encoding: 0 = JSON body, 1 = binary body
//	[3]  tag length (tags are short path-like strings, ≤255 bytes)
//	[4:] tag, then a big-endian uint32 body length, then the body
//
// Payload types that implement BinaryAppender/BinaryParser get a
// hand-rolled binary body (no reflection, no intermediate buffers);
// everything else falls back to a JSON body inside the binary frame,
// which still skips the outer envelope document and its RawMessage copy.
//
// Both ends of a link must run the same codec: Decode rejects a frame that
// does not start with the magic byte, and FromTransport counts it in
// Dropped().
type BinaryCodec struct {
	reg *Codec
}

// NewBinaryCodec wraps a registry codec. Register payload types on reg;
// both codecs then carry them.
func NewBinaryCodec(reg *Codec) *BinaryCodec { return &BinaryCodec{reg: reg} }

// BinaryAppender is implemented by payload types with a hand-rolled binary
// body encoding. AppendBinary appends the encoded body to dst and returns
// the extended slice (the append idiom: no intermediate allocation).
type BinaryAppender interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// BinaryParser is the decode half of BinaryAppender. ParseBinary parses
// an encoded body produced by AppendBinary into the receiver.
type BinaryParser interface {
	ParseBinary(data []byte) error
}

const (
	binMagic   = 0xC5
	binVersion = 1
	bodyJSON   = 0
	bodyBinary = 1
)

// MaxBinaryFrame bounds the declared body length a binary frame may carry;
// larger declarations are rejected before any allocation happens, so a
// corrupt or hostile length prefix cannot balloon memory.
const MaxBinaryFrame = 16 << 20

// Errors surfaced by binary frame parsing.
var (
	ErrTruncatedFrame = errors.New("fabric: truncated binary frame")
	ErrOversizedFrame = errors.New("fabric: binary frame body length exceeds limit")
)

// Encode frames payload under its registered tag.
//
//cscw:hotpath
func (c *BinaryCodec) Encode(payload any) ([]byte, error) {
	t := reflect.TypeOf(payload)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	c.reg.mu.RLock()
	tag, ok := c.reg.byTyp[t]
	c.reg.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fabric: no tag registered for payload type %T", payload)
	}
	if len(tag) > 255 {
		return nil, fmt.Errorf("fabric: tag %q too long for binary frame", tag)
	}
	dst := make([]byte, 0, 64+len(tag))
	enc := byte(bodyJSON)
	if _, ok := payload.(BinaryAppender); ok {
		enc = bodyBinary
	}
	dst = append(dst, binMagic, binVersion, enc, byte(len(tag)))
	dst = append(dst, tag...)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if enc == bodyBinary {
		var err error
		dst, err = payload.(BinaryAppender).AppendBinary(dst)
		if err != nil {
			return nil, fmt.Errorf("fabric: binary-encode %s body: %w", tag, err)
		}
	} else {
		body, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("fabric: marshal %s body: %w", tag, err)
		}
		dst = append(dst, body...)
	}
	bodyLen := len(dst) - lenAt - 4
	if bodyLen > MaxBinaryFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversizedFrame, bodyLen)
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(bodyLen))
	return dst, nil
}

// Decode parses a frame into a pointer to the registered type for its tag.
// Unknown tags return (nil, nil) so callers can skip foreign traffic, as
// with the JSON codec; malformed frames (bad version, truncation, a length
// prefix past the limit or disagreeing with the actual frame size) are
// errors, and so is a frame without the magic byte — a JSON envelope from
// a peer running the other codec included.
//
//cscw:hotpath
func (c *BinaryCodec) Decode(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrTruncatedFrame)
	}
	if data[0] != binMagic {
		return nil, fmt.Errorf("fabric: not a binary frame (leading byte %#x)", data[0])
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncatedFrame, len(data))
	}
	if data[1] != binVersion {
		return nil, fmt.Errorf("fabric: unknown binary frame version %d", data[1])
	}
	enc := data[2]
	tagLen := int(data[3])
	rest := data[4:]
	if len(rest) < tagLen+4 {
		return nil, fmt.Errorf("%w: header declares %d-byte tag, %d bytes remain", ErrTruncatedFrame, tagLen, len(rest))
	}
	tag := rest[:tagLen]
	bodyLen := binary.BigEndian.Uint32(rest[tagLen : tagLen+4])
	if bodyLen > MaxBinaryFrame {
		return nil, fmt.Errorf("%w: declared %d bytes", ErrOversizedFrame, bodyLen)
	}
	body := rest[tagLen+4:]
	if uint32(len(body)) < bodyLen {
		return nil, fmt.Errorf("%w: declared %d-byte body, %d bytes remain", ErrTruncatedFrame, bodyLen, len(body))
	}
	if uint32(len(body)) > bodyLen {
		return nil, fmt.Errorf("fabric: binary frame carries %d trailing bytes", uint32(len(body))-bodyLen)
	}
	c.reg.mu.RLock()
	t, ok := c.reg.byTag[string(tag)]
	c.reg.mu.RUnlock()
	if !ok {
		return nil, nil
	}
	out := reflect.New(t).Interface()
	switch enc {
	case bodyBinary:
		bp, ok := out.(BinaryParser)
		if !ok {
			return nil, fmt.Errorf("fabric: binary body for %s but %T implements no BinaryParser", string(tag), out)
		}
		if err := bp.ParseBinary(body); err != nil {
			return nil, fmt.Errorf("fabric: binary-decode %s body: %w", string(tag), err)
		}
	case bodyJSON:
		if err := json.Unmarshal(body, out); err != nil {
			return nil, fmt.Errorf("fabric: decode %s body: %w", string(tag), err)
		}
	default:
		return nil, fmt.Errorf("fabric: unknown body encoding %d", enc)
	}
	return out, nil
}

// --- binary body building blocks ---------------------------------------
//
// Hand-rolled binary bodies are uvarint integers and length-prefixed
// strings. Session and friends build their BinaryAppender from the Append
// helpers and their BinaryParser on a Reader, which owns every truncation,
// count-bound and trailing-byte check.

// AppendUvarint appends v as a varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// AppendString appends s as a uvarint length prefix plus bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Reader is the decode half: a cursor over one body with a sticky error.
// The first malformed field is kept (wrapping ErrTruncatedFrame) and every
// later read returns the zero value, so a ParseBinary is straight-line
// `m.F = r.X()` in wire order with one check, Done, at the end. Element
// loops stop at r.Err() != nil. Use it as a local, passed down by pointer.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a cursor at the start of body.
func NewReader(body []byte) Reader { return Reader{data: body} }

// fail keeps the first error and empties the body, which is what makes the
// error sticky: every later read finds nothing left and fails into its zero
// value without overwriting it.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.data = nil
}

// Uvarint reads a varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad uvarint", ErrTruncatedFrame))
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad varint", ErrTruncatedFrame))
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.data) == 0 {
		r.fail(fmt.Errorf("%w: missing byte", ErrTruncatedFrame))
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > uint64(len(r.data)) {
		r.fail(fmt.Errorf("%w: string declares %d bytes, %d remain", ErrTruncatedFrame, n, len(r.data)))
		return ""
	}
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// Count reads an element count and rejects one the rest of the body could
// not hold at minElemBytes (the element's smallest encoding) apiece, so a
// corrupt count cannot balloon the caller's allocation.
func (r *Reader) Count(what string, minElemBytes int) int {
	n := r.Uvarint()
	if n > uint64(len(r.data)/minElemBytes) {
		r.fail(fmt.Errorf("%w: %d %s in %d bytes", ErrTruncatedFrame, n, what, len(r.data)))
		return 0
	}
	return int(n)
}

// Err returns the first error any read hit, nil while the body is sound.
func (r *Reader) Err() error { return r.err }

// Done ends a parse: the first read error if there was one, otherwise an
// error if bytes remain after the last field of the what body.
func (r *Reader) Done(what string) error {
	if r.err == nil && len(r.data) != 0 {
		return fmt.Errorf("fabric: %s body carries %d trailing bytes", what, len(r.data))
	}
	return r.err
}

// AppendBinary implements BinaryAppender for the fabric Hello.
func (h Hello) AppendBinary(dst []byte) ([]byte, error) {
	return AppendString(dst, h.Addr), nil
}

// ParseBinary implements BinaryParser for the fabric Hello.
func (h *Hello) ParseBinary(data []byte) error {
	r := NewReader(data)
	h.Addr = r.String()
	return r.Done("hello")
}
