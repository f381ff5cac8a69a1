// Package transport is the byte transport of live CSCW sessions: TCP with
// length-prefixed framing, the edge of the deployment (cmd/sessiond,
// cmd/cscwctl). Simulated-network experiments use package netsim instead;
// both expose the same handler-style endpoint shape so the layers above can
// run over either.
package transport

import "errors"

// Common transport errors.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownPeer = errors.New("transport: unknown peer")
)

// Handler consumes inbound messages. Handlers must not block for long; a slow
// handler delays only the connection it is reading. data belongs to the endpoint and is
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
	// frame before returning), so the caller may reuse the buffer at once.
	// A wrapper must keep the same promise.
	Send(to string, data []byte) error
	// SetHandler installs the inbound message handler. It must be called
	// before the first message arrives.
	SetHandler(h Handler)
	// Close releases resources and stops delivery.
	Close() error
}
