package fabric

import (
	"fmt"
	"reflect"
	"sync"
)

// PayloadCodec turns typed payloads into wire frames and back. *Codec is the
// one implementation; the interface is what FromTransport takes, so a
// harness can wrap the codec (to count or time it) without copying it.
// Decode returns (nil, nil) for frames tagged for other protocols.
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
	byTag map[string]reflect.Type
	byTyp map[reflect.Type]string
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{
		byTag: make(map[string]reflect.Type),
		byTyp: make(map[reflect.Type]string),
	}
}

var (
	appenderType = reflect.TypeFor[BinaryAppender]()
	parserType   = reflect.TypeFor[BinaryParser]()
)

// Register associates tag with prototype's (pointer-stripped) type. Both a
// value and a pointer of the type encode under the tag; Decode always
// returns a pointer to a freshly allocated value. It panics — a set-up
// error, not a wire one — when the type lacks a half of the binary body
// (a value-receiver BinaryAppender and a BinaryParser on the pointer) or
// the tag does not fit the frame's one-byte length.
func (c *Codec) Register(tag string, prototype any) {
	t := reflect.TypeOf(prototype)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch {
	case len(tag) > 255:
		panic(fmt.Sprintf("fabric: tag %q for %v is longer than 255 bytes", tag, t))
	case !t.Implements(appenderType):
		panic(fmt.Sprintf("fabric: %v (tag %s) implements no BinaryAppender", t, tag))
	case !reflect.PointerTo(t).Implements(parserType):
		panic(fmt.Sprintf("fabric: *%v (tag %s) implements no BinaryParser", t, tag))
	}
	c.mu.Lock()
	c.byTag[tag] = t
	c.byTyp[t] = tag
	c.mu.Unlock()
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
