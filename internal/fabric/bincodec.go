package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"repro/internal/transport"
)

// The wire frame Codec encodes every payload in: a length-prefixed binary
// frame around a hand-rolled body, no reflection past the tag lookup and no
// intermediate buffers.
//
// Frame layout:
//
//	[0]  magic 0xC5
//	[1]  version (2; 1 wrote every item of a session item run in full)
//	[2]  body encoding (1, binary: the only one)
//	[3]  tag length (tags are short path-like strings, ≤255 bytes)
//	[4:] tag, then a big-endian uint32 body length, then the body
//
// Every registered type writes its own body (BinaryAppender) and parses it
// back on a Reader (BinaryParser); Register refuses a type without both.
//
// A carrier that already delimits its bytes and names their type its own
// way (an engine op inside a session item, whose kind byte indexes the
// engine's table) takes the body alone: TagOf names the payload, its
// BinaryAppender writes the body, and ParseBody reads one back under a tag
// the carrier knows. No magic, version, tag or body length.

// BinaryCodec is Codec under the name the frozen benchmark harness uses.
type BinaryCodec = Codec

// NewBinaryCodec returns reg: the registry is the binary codec.
func NewBinaryCodec(reg *Codec) *BinaryCodec { return reg }

// BinaryAppender is implemented by payload types with a hand-rolled binary
// body encoding. AppendBinary appends the encoded body to dst and returns
// the extended slice (the append idiom: no intermediate allocation).
type BinaryAppender interface {
	AppendBinary(dst []byte) ([]byte, error)
}

// BinaryParser is the decode half of BinaryAppender. ParseBinary parses
// the body AppendBinary produced, which r reads from its start, into the
// receiver, and returns r.Done. The codec builds r and passes it by value:
// a *Reader handed through this interface call would escape to the heap,
// one allocation per decode, so helpers take &r inside the parser instead.
type BinaryParser interface {
	ParseBinary(r Reader) error
}

const (
	binMagic   = 0xC5
	binVersion = 2
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

// Frame storage is recycled: Encode takes its buffer from freeFrames when
// one is there, and FromTransport's Send hands it back through recycleFrame
// once the transport's Send has returned, which keeps nothing. The list is
// bounded in slots and in the capacity it keeps per slot, the transport's
// own bound for frame buffers kept between frames (transport.FrameBufCap),
// so a join ack or poll answer the transport writes from a kept buffer is
// encoded into kept storage too, and the list holds at most 16 × 64 KiB =
// 1 MiB. A slot serves one send in flight: 16 lets a daemon with 16
// participants send from every connection's reader at once, and a send
// that finds the list empty just allocates. It is a channel, not a
// sync.Pool, because putting a []byte into a Pool boxes it: one allocation
// per send, the cost the list exists to remove.
const freeFrameSlots = 16

var freeFrames = make(chan []byte, freeFrameSlots)

// recycleFrame returns a frame's storage to the free list, unless the list
// is full or the frame is past transport.FrameBufCap. The caller must be
// done with it.
func recycleFrame(frame []byte) {
	if cap(frame) > transport.FrameBufCap {
		return
	}
	select {
	case freeFrames <- frame[:0]:
	default:
	}
}

// Encode frames payload under its registered tag. Unregistered payload
// types are an error: wire substrates can only carry known shapes. The
// frame belongs to the caller; its storage may come from a frame an earlier
// FromTransport Send recycled.
//
//cscw:hotpath
func (c *Codec) Encode(payload any) ([]byte, error) {
	tag, err := c.TagOf(payload)
	if err != nil {
		return nil, err
	}
	var dst []byte
	select {
	case dst = <-freeFrames:
	default:
		dst = make([]byte, 0, 64+len(tag))
	}
	dst = append(dst, binMagic, binVersion, bodyBinary, byte(len(tag)))
	dst = append(dst, tag...)
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	// Register checked that the type implements BinaryAppender.
	dst, err = payload.(BinaryAppender).AppendBinary(dst)
	if err != nil {
		return nil, fmt.Errorf("fabric: binary-encode %s body: %w", tag, err)
	}
	bodyLen := len(dst) - lenAt - 4
	if bodyLen > MaxBinaryFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrOversizedFrame, bodyLen)
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(bodyLen))
	return dst, nil
}

// Decode parses a frame into a pointer to the registered type for its tag:
// a fresh value, or for a Scoped type one from its free list, which the
// caller hands back when the value's readers are done (FromTransport does,
// once its handler chain has returned). Unknown tags return (nil, nil) so
// callers can skip traffic meant for other protocols sharing the endpoint;
// malformed frames (no magic byte, bad version or body encoding,
// truncation, a length prefix past the limit or disagreeing with the actual
// frame size, a body its parser rejects) are errors.
//
//cscw:hotpath
func (c *Codec) Decode(data []byte) (any, error) {
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
	if enc != bodyBinary {
		return nil, fmt.Errorf("fabric: unknown body encoding %d", enc)
	}
	c.mu.RLock()
	reg, ok := c.byTag[string(tag)]
	c.mu.RUnlock()
	if !ok {
		return nil, nil
	}
	// The one copy of a received frame: the transport reuses data once
	// this returns, and every string field is a substring of this.
	return c.parse(reg, string(body))
}

// ParseBody parses body, all of it, as the binary body of the type
// registered under tag, and returns a pointer to a value of it, as Decode
// does. A tag nothing registered is an error: the caller named it, so it
// has no other protocol to belong to. Nothing is copied: every string field
// is a substring of body.
//
//cscw:hotpath
func (c *Codec) ParseBody(tag, body string) (any, error) {
	c.mu.RLock()
	reg, ok := c.byTag[tag]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fabric: no type registered for tag %q", tag)
	}
	return c.parse(reg, body)
}

// TagOf is the one type → tag lookup: the tag registered for payload's
// (pointer-stripped) type. Unregistered payload types are an error.
//
//cscw:hotpath
func (c *Codec) TagOf(payload any) (string, error) {
	t := reflect.TypeOf(payload)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	c.mu.RLock()
	tag, ok := c.byTyp[t]
	c.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("fabric: no tag registered for payload type %T", payload)
	}
	return tag, nil
}

// parse is the one parse step of Decode and ParseBody: a zero value of a
// registered type, taken from the type's free list when it has one, with
// body parsed into it. Register checked that the pointer type implements
// BinaryParser. A value the body does not parse into goes back to its free
// list, if it has one.
func (c *Codec) parse(reg registered, body string) (any, error) {
	var out any
	if reg.free != nil {
		out = reg.free.take()
	} else {
		out = reflect.New(reg.t).Interface()
	}
	if err := out.(BinaryParser).ParseBinary(NewReader(body)); err != nil {
		tag, _ := c.TagOf(out)
		release(out)
		return nil, fmt.Errorf("fabric: binary-decode %s body: %w", tag, err)
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
// loops stop at r.Err() != nil. A ParseBinary gets it by value and hands it
// down to helpers by pointer.
//
// The body is a string, and every string field is a substring of it, so a
// read copies nothing and any one string field keeps the whole body alive.
// Codec.Decode makes that string from the transport's frame buffer (the one
// copy a received frame costs); Codec.ParseBody reads the string its
// carrier already holds.
type Reader struct {
	body string
	off  int // the next byte to read; len(body) once a read has failed
	err  error
}

// NewReader returns a cursor at the start of body.
func NewReader(body string) Reader { return Reader{body: body} }

// fail keeps the first error and moves the cursor to the end, which is what
// makes the error sticky: every later read finds nothing left and fails
// into its zero value without overwriting it.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.off = len(r.body)
}

// uvarint reads a varint as binary.Uvarint does: at most MaxVarintLen64
// bytes, the last of which may carry only the top bit. Unlike
// binary.Uvarint it refuses a non-minimal spelling (a last byte of zero
// after the first), which no appender writes, so a body has one encoding.
// ok is false on a truncated, overflowing or non-minimal varint, and then
// the cursor has not moved.
func (r *Reader) uvarint() (v uint64, ok bool) {
	var shift uint
	for i := r.off; i < len(r.body); i++ {
		n := i - r.off
		if n == binary.MaxVarintLen64 {
			return 0, false
		}
		b := r.body[i]
		if b < 0x80 {
			if n == binary.MaxVarintLen64-1 && b > 1 || n > 0 && b == 0 {
				return 0, false
			}
			r.off = i + 1
			return v | uint64(b)<<shift, true
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, false
}

// Uvarint reads a varint.
func (r *Reader) Uvarint() uint64 {
	v, ok := r.uvarint()
	if !ok {
		r.fail(fmt.Errorf("%w: bad uvarint", ErrTruncatedFrame))
	}
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	u, ok := r.uvarint()
	if !ok {
		r.fail(fmt.Errorf("%w: bad varint", ErrTruncatedFrame))
		return 0
	}
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off == len(r.body) {
		r.fail(fmt.Errorf("%w: missing byte", ErrTruncatedFrame))
		return 0
	}
	b := r.body[r.off]
	r.off++
	return b
}

// String reads a length-prefixed string: a substring of the body, except
// that an empty one is "" and pins nothing.
func (r *Reader) String() string { return r.Raw(r.Uvarint()) }

// Raw reads the next n bytes as String reads a string's bytes, for a body
// that writes the length its own way.
func (r *Reader) Raw(n uint64) string {
	if rest := len(r.body) - r.off; n > uint64(rest) {
		r.fail(fmt.Errorf("%w: string declares %d bytes, %d remain", ErrTruncatedFrame, n, rest))
		return ""
	}
	if n == 0 {
		return ""
	}
	s := r.body[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// Count reads an element count and rejects one the rest of the body could
// not hold at minElemBytes (the element's smallest encoding) apiece, so a
// corrupt count cannot balloon the caller's allocation.
func (r *Reader) Count(what string, minElemBytes int) int {
	n := r.Uvarint()
	if rest := len(r.body) - r.off; n > uint64(rest/minElemBytes) {
		r.fail(fmt.Errorf("%w: %d %s in %d bytes", ErrTruncatedFrame, n, what, rest))
		return 0
	}
	return int(n)
}

// Err returns the first error any read hit, nil while the body is sound.
func (r *Reader) Err() error { return r.err }

// Done ends a parse: the first read error if there was one, otherwise an
// error if bytes remain after the last field of the what body.
func (r *Reader) Done(what string) error {
	if rest := len(r.body) - r.off; r.err == nil && rest != 0 {
		return fmt.Errorf("fabric: %s body carries %d trailing bytes", what, rest)
	}
	return r.err
}

// AppendBinary implements BinaryAppender for the fabric Hello.
func (h Hello) AppendBinary(dst []byte) ([]byte, error) {
	return AppendString(dst, h.Addr), nil
}

// ParseBinary implements BinaryParser for the fabric Hello.
func (h *Hello) ParseBinary(r Reader) error {
	h.Addr = r.String()
	return r.Done("hello")
}
