// Package fabric is the single seam between the collaboration layers and
// the messaging substrates. Both substrates — the discrete-event simulator
// (netsim) and the TCP transport (transport) — are adapted to one Endpoint
// interface with a uniform (from, payload, size) delivery
// shape, so group, session, stream, mobile and core code runs unchanged over
// any of them. Middlewares (the tracing Tap and Logging) interpose on the
// message path by wrapping an Endpoint; Wrap composes them into a chain.
//
// The package owns the one wire codec: payload structs register under a
// string tag once, with a hand-rolled binary body, and travel over
// byte-oriented substrates as binary frames (a frame the codec cannot read
// is a counted drop), while in-process substrates pass the typed values
// straight through.
//
// It also owns the one rule for acting on an Endpoint from under a lock:
// every entry point of a protocol owner (a group member, a session document
// or client) is one Outbox.Do, which locks the owner's mutex while the owner
// decides and queues its sends, deliveries and callbacks, then releases it
// and performs them in order.
package fabric

import (
	"errors"
	"sync"
)

// ErrClosed is returned by Send on a closed endpoint.
var ErrClosed = errors.New("fabric: endpoint closed")

// Handler receives one inbound message: the sender's id, the decoded typed
// payload, and the nominal size in bytes (for accounting; substrates that
// frame bytes report the frame length, in-process substrates report the
// sender-declared size).
type Handler func(from string, payload any, size int)

// Endpoint is the uniform messaging surface. A message that arrives while no
// handler is installed is not delivered: it is counted as dropped, like a
// frame that cannot be decoded (see DroppedOf), so an owner installs its
// handler before it lets peers reach it.
//
// Struct payloads are pointers, on every substrate: senders pass &T{...},
// in-process substrates hand that pointer through, and byte substrates
// decode into a *T of their own, a send to the endpoint's own id included.
// That *T is freshly allocated unless T is Scoped: then it comes from T's
// free list and is the receivers' only until the handler call returns, after
// which FromTransport zeroes it and hands it to a later decode, so a
// receiver that keeps the message copies the struct inside the call (its
// strings it may keep). A receiver must treat a payload as shared and never
// modify it. Receivers switch on *T only; a T sent by value reaches no case
// and is dropped as foreign traffic.
type Endpoint interface {
	// ID returns the endpoint's stable address on its substrate.
	ID() string
	// Send delivers payload to the named peer. size is the nominal wire
	// size in bytes for bandwidth/metrics accounting.
	Send(to string, payload any, size int) error
	// SetHandler installs (or, with nil, removes) the delivery callback.
	SetHandler(h Handler)
	// Close releases the endpoint; subsequent Sends return ErrClosed.
	Close() error
}

// Middleware wraps an Endpoint with interposed behaviour. The wrapper must
// delegate ID and Close and may transform Send and the installed Handler.
// A delivered payload of a Scoped type is valid only until the wrapped
// handler returns, so a middleware that keeps one past that (to deliver it
// later, or to record it) keeps a copy of the struct, never the pointer.
type Middleware func(Endpoint) Endpoint

// Wrap composes middlewares around ep. The first middleware is outermost:
// Wrap(ep, a, b) means a sees Sends first and deliveries last.
func Wrap(ep Endpoint, mws ...Middleware) Endpoint {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] == nil {
			continue
		}
		ep = mws[i](ep)
	}
	return ep
}

// Unwrapper is implemented by middleware wrappers so the chain can be
// walked down to the substrate adapter.
type Unwrapper interface{ Unwrap() Endpoint }

// DropCounter is implemented by adapters that count messages lost for want
// of a handler or because they could not be decoded.
type DropCounter interface{ Dropped() uint64 }

// DroppedOf walks a middleware chain down to the first endpoint exposing a
// drop count and returns it; zero if none does.
func DroppedOf(ep Endpoint) uint64 {
	for ep != nil {
		if d, ok := ep.(DropCounter); ok {
			return d.Dropped()
		}
		u, ok := ep.(Unwrapper)
		if !ok {
			return 0
		}
		ep = u.Unwrap()
	}
	return 0
}

// inbox is the delivery stage shared by the substrate adapters: the
// installed handler, and a count of what arrived without one or could not be
// decoded.
type inbox struct {
	mu      sync.Mutex
	handler Handler
	dropped uint64
}

// deliver hands one message to the handler, or counts it dropped when none
// is installed.
func (b *inbox) deliver(from string, payload any, size int) {
	b.mu.Lock()
	h := b.handler
	if h == nil {
		b.dropped++
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	h(from, payload, size)
}

func (b *inbox) countDrop() {
	b.mu.Lock()
	b.dropped++
	b.mu.Unlock()
}

func (b *inbox) set(h Handler) {
	b.mu.Lock()
	b.handler = h
	b.mu.Unlock()
}

func (b *inbox) droppedCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}
