// Package transport provides real message transports for live CSCW
// sessions: an in-memory hub for same-process use and a TCP transport with
// length-prefixed framing for distributed deployment (cmd/sessiond,
// cmd/cscwctl). Simulated-network experiments use package netsim instead;
// both expose the same handler-style endpoint shape so the layers above can
// run over either.
package transport

import (
	"errors"
	"sync"
)

// Common transport errors.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Handler consumes inbound messages. Handlers must not block for long; slow
// consumers delay only their own queue. data belongs to the endpoint and is
// valid only until the handler returns: the TCP endpoint reads every frame of
// a connection into one reused buffer, so a handler that keeps bytes must
// copy them.
type Handler func(from string, data []byte)

// Endpoint is a bidirectional message port identified by a name.
type Endpoint interface {
	// ID returns the endpoint's stable identifier.
	ID() string
	// Send transmits data to the named peer. data stays the caller's: Send
	// never keeps it, or any part of it, after it returns (TCP writes the
	// frame before returning, the hub copies it), so the caller may reuse
	// the buffer at once. A wrapper must keep the same promise.
	Send(to string, data []byte) error
	// SetHandler installs the inbound message handler. It must be called
	// before the first message arrives.
	SetHandler(h Handler)
	// Close releases resources and stops delivery.
	Close() error
}

// queue is an unbounded FIFO with blocking receive, used to decouple senders
// from handler execution without picking an arbitrary channel capacity.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []item
	closed bool
}

type item struct {
	from string
	data []byte
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(it item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, it)
	q.cond.Signal()
	return true
}

// pop blocks until an item is available or the queue closes.
func (q *queue) pop() (item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return item{}, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it, true
}

func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
