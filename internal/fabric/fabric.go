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
// a protocol owner (a group member, a session document or client) queues
// its sends, deliveries and callbacks on an Outbox while holding its mutex,
// and Outbox.Drain releases the mutex and performs them in order.
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

// Endpoint is the uniform messaging surface. Implementations must tolerate
// SetHandler being called before, after, or between deliveries; messages
// arriving while no handler is installed are buffered (bounded) rather than
// silently dropped, and overflow is counted — see Dropped probing below.
//
// Struct payloads are pointers, on every substrate: senders pass &T{...},
// in-process substrates hand that pointer through, and byte substrates
// decode into a fresh *T, except for a send to the endpoint's own id, which
// hands the sender's pointer through as well. A receiver must therefore
// treat a payload as shared and never modify it. Receivers switch on *T
// only; a T sent by value reaches no case and is dropped as foreign
// traffic.
type Endpoint interface {
	// ID returns the endpoint's stable address on its substrate.
	ID() string
	// Send delivers payload to the named peer. size is the nominal wire
	// size in bytes for bandwidth/metrics accounting.
	Send(to string, payload any, size int) error
	// SetHandler installs (or, with nil, removes) the delivery callback.
	// Installing a handler flushes any buffered deliveries in arrival
	// order before new ones are dispatched.
	SetHandler(h Handler)
	// Close releases the endpoint; subsequent Sends return ErrClosed.
	Close() error
}

// Middleware wraps an Endpoint with interposed behaviour. The wrapper must
// delegate ID and Close and may transform Send and the installed Handler.
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
// of a handler (buffer overflow) or because they could not be decoded.
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

// pendingCap bounds the no-handler buffer; beyond it arrivals are counted
// as dropped instead of held. Large enough for any setup-order race, small
// enough to not mask a forgotten handler forever.
const pendingCap = 1024

type delivery struct {
	from    string
	payload any
	size    int
}

// inbox is the shared buffer-or-count delivery stage used by the substrate
// adapters: it holds messages that arrive before a handler is installed and
// flushes them, in order, when one is.
type inbox struct {
	mu       sync.Mutex
	handler  Handler
	pending  []delivery
	flushing bool
	dropped  uint64
}

func (b *inbox) deliver(from string, payload any, size int) {
	b.mu.Lock()
	// While a flush is running, new arrivals join the queue so the flush
	// loop preserves arrival order.
	if b.handler == nil || b.flushing {
		if len(b.pending) >= pendingCap {
			b.dropped++
			b.mu.Unlock()
			return
		}
		b.pending = append(b.pending, delivery{from, payload, size})
		b.mu.Unlock()
		return
	}
	h := b.handler
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
	if h == nil || b.flushing {
		b.mu.Unlock()
		return
	}
	b.flushing = true
	for len(b.pending) > 0 && b.handler != nil {
		batch := b.pending
		b.pending = nil
		cur := b.handler
		b.mu.Unlock()
		for _, d := range batch {
			cur(d.from, d.payload, d.size)
		}
		b.mu.Lock()
	}
	b.flushing = false
	b.mu.Unlock()
}

func (b *inbox) droppedCount() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}
