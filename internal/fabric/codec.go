package fabric

import (
	"fmt"
	"reflect"
	"sync"
)

// PayloadCodec turns typed payloads into wire frames and back. *Codec is the
// one implementation; the interface is what FromTransport takes, so a
// harness can wrap the codec (to count or time it) without copying it.
// Encode returns a frame the caller owns, and nothing else may hold it:
// FromTransport recycles its storage into a later Encode once the
// transport's Send has returned, so a wrapper must pass on the very frame the
// inner Encode made (or a fresh one), never one it keeps. Decode returns
// (nil, nil) for frames tagged for other protocols; data is the caller's and
// no decoded value may alias it. A decoded value of a Scoped type is lent:
// FromTransport puts it back on its type's free list once the handler chain
// has returned, so a wrapper that keeps a payload past Decode copies it.
type PayloadCodec interface {
	Encode(payload any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// Codec is the wire codec: a registry mapping payload types to frame tags
// and back, and the binary frame (bincodec.go) it encodes them in, so
// callers send and receive typed values while byte-oriented substrates
// carry frames. Register every wire type once at setup; Encode and Decode
// are safe for concurrent use afterwards.
type Codec struct {
	mu    sync.RWMutex
	byTag map[string]registered
	byTyp map[reflect.Type]string
}

// registered is a tag's type, and its free list when the type is Scoped.
type registered struct {
	t    reflect.Type
	free Recycler
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{
		byTag: make(map[string]registered),
		byTyp: make(map[reflect.Type]string),
	}
}

var (
	appenderType = reflect.TypeFor[BinaryAppender]()
	parserType   = reflect.TypeFor[BinaryParser]()
)

// Register associates tag with the type of prototype, a struct value. Both
// a value and a pointer of the type encode under the tag; Decode returns a
// pointer to a zero value with the body parsed into it, freshly allocated
// unless the type is Scoped, whose values come from and go back to its free
// list. It panics — a set-up error, not a wire one — when the type lacks a
// half of the binary body (a value-receiver BinaryAppender and a
// BinaryParser on the pointer; a pointer prototype has no parser on its
// pointer) or the tag does not fit the frame's one-byte length.
func (c *Codec) Register(tag string, prototype any) {
	t := reflect.TypeOf(prototype)
	switch {
	case len(tag) > 255:
		panic(fmt.Sprintf("fabric: tag %q for %v is longer than 255 bytes", tag, t))
	case !t.Implements(appenderType):
		panic(fmt.Sprintf("fabric: %v (tag %s) implements no BinaryAppender", t, tag))
	case !reflect.PointerTo(t).Implements(parserType):
		panic(fmt.Sprintf("fabric: *%v (tag %s) implements no BinaryParser", t, tag))
	}
	reg := registered{t: t}
	// A nil pointer is enough to ask for the free list (Scoped's rule), so
	// registering allocates nothing per codec.
	if s, ok := reflect.Zero(reflect.PointerTo(t)).Interface().(Scoped); ok {
		reg.free = s.FreeList()
	}
	c.mu.Lock()
	c.byTag[tag] = reg
	c.byTyp[t] = tag
	c.mu.Unlock()
}

// Scoped is implemented, on the pointer, by a payload type that declares
// its receivers read a delivered value only inside the handler call and keep
// none of the struct. They may keep its strings, which are substrings of the
// frame's one copy (see Reader) and so never alias the transport's buffer.
// For such a type Codec.Decode takes the value from the type's free list
// instead of allocating one, and FromTransport puts it back once the handler
// chain has returned; in-process substrates keep passing the sender's
// pointer, which nothing puts back. A receiver that needs the message later
// copies the struct inside the handler, and so does a Middleware.
//
// FreeList returns the type's free list, one per type: a package variable
// of the declaring package, never one per codec. Register calls it on a nil
// pointer, so it must not read its receiver.
type Scoped interface {
	FreeList() Recycler
}

// Recycler is a Scoped type's free list as the codec and FromTransport use
// it; *FreeList is the one implementation.
type Recycler interface {
	take() any
	put(v any)
}

// freeValueSlots bounds a free list, as freeFrameSlots bounds the frame
// list: one value per decode in flight, so 16 readers can decode at once and
// a seventeenth allocates.
const freeValueSlots = 16

// FreeList is the free list of a Scoped type T: up to freeValueSlots
// values, each zeroed when it comes back, so a value taken from it is the
// zero value a fresh allocation would be. The zero FreeList is empty and
// ready, so declaring one as a package variable allocates nothing. It is a
// mutex over an array rather than a sync.Pool, which may drop its values at
// any GC, or a channel, which would be allocated where it is declared.
type FreeList[T any] struct {
	mu    sync.Mutex
	n     int
	slots [freeValueSlots]*T
}

// take returns a *T of the list's, or a new one when the list is empty.
func (l *FreeList[T]) take() any {
	l.mu.Lock()
	if l.n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	l.n--
	v := l.slots[l.n]
	l.slots[l.n] = nil
	l.mu.Unlock()
	return v
}

// put zeroes v, a *T, and keeps it unless the list is full. Zeroing drops
// the strings v held, so a kept value pins no frame body.
func (l *FreeList[T]) put(v any) {
	p := v.(*T)
	var zero T
	*p = zero
	l.mu.Lock()
	if l.n < len(l.slots) {
		l.slots[l.n] = p
		l.n++
	}
	l.mu.Unlock()
}

// release puts a decoded payload back on its type's free list when the type
// is Scoped; the caller, the payload's last reader, must be done with it.
// Any other payload is left to the collector.
func release(payload any) {
	if s, ok := payload.(Scoped); ok {
		s.FreeList().put(payload)
	}
}

// Hello announces an endpoint's dialable address. Nothing in the module sends
// or reads it any more (a TCP peer is answered on the connection it dialed);
// it stays registered only because the benchmark harness still sends one.
type Hello struct {
	Addr string
}

// RegisterBase registers fabric's own housekeeping messages (currently just
// Hello) with a codec.
func RegisterBase(c *Codec) {
	c.Register("fabric/hello", Hello{})
}
