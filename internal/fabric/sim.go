package fabric

import (
	"sync"

	"repro/internal/netsim"
)

// SimEndpoint adapts a netsim node to the fabric Endpoint interface.
// Payloads are in-process values and cross the simulated network untouched;
// size feeds the simulator's bandwidth model.
type SimEndpoint struct {
	node *netsim.Node
	in   inbox

	mu     sync.Mutex
	closed bool
}

// FromSim wraps a simulator node. The node's raw handler is claimed
// immediately, so a delivery arriving before SetHandler is counted as
// dropped here instead of vanishing in the simulator.
func FromSim(node *netsim.Node) *SimEndpoint {
	ep := &SimEndpoint{node: node}
	node.SetHandler(func(m netsim.Msg) { ep.in.deliver(m.From, m.Payload, m.Size) })
	return ep
}

// ID returns the underlying node id.
func (e *SimEndpoint) ID() string { return e.node.ID() }

// Send schedules delivery through the simulator.
func (e *SimEndpoint) Send(to string, payload any, size int) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.node.Send(to, payload, size)
}

// SetHandler installs the delivery callback.
func (e *SimEndpoint) SetHandler(h Handler) { e.in.set(h) }

// Close detaches from the node; later Sends return ErrClosed.
func (e *SimEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.node.SetHandler(nil)
	e.in.set(nil)
	return nil
}

// Dropped counts deliveries that arrived while no handler was installed.
func (e *SimEndpoint) Dropped() uint64 { return e.in.droppedCount() }
