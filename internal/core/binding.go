package core

import (
	"fmt"

	"repro/internal/qos"
)

// OpBinding is an explicit operational binding between a client node and an
// exported interface. It is a first-class object: establish, invoke,
// inspect, tear down — and every step is observable.
type OpBinding struct {
	kernel *Kernel
	id     string
	client string
	offer  Offer
	bound  bool
	// Invocations counts completed invocations.
	Invocations int
}

// Bind establishes an operational binding from clientNode to offer,
// re-checking QoS compatibility against required at bind time (the offer
// may be stale).
func (k *Kernel) Bind(clientNode string, offer Offer, required qos.Params) (*OpBinding, error) {
	if !offer.QoS.Satisfies(required) {
		return nil, fmt.Errorf("%w: offer %s.%s", ErrIncompatible, offer.Object, offer.Interface)
	}
	if k.sim.Node(clientNode) == nil {
		return nil, fmt.Errorf("%w: %s", ErrNodeUnattached, clientNode)
	}
	if err := k.AttachNode(clientNode); err != nil {
		return nil, err
	}
	k.nextBnd++
	b := &OpBinding{
		kernel: k,
		id:     fmt.Sprintf("binding-%d", k.nextBnd),
		client: clientNode,
		offer:  offer,
		bound:  true,
	}
	k.emit(Event{Kind: EvBound, Binding: b.id, Client: clientNode, Object: offer.Object, At: k.sim.Now()})
	return b, nil
}

// Invoke calls op(arg) through the binding. done receives the result when
// the reply arrives; the invocation travels the simulated network both
// ways, so placement and links determine the observed latency.
func (b *OpBinding) Invoke(op, arg string, done func(result string, err error)) error {
	if !b.bound {
		return ErrUnbound
	}
	k := b.kernel
	serverNode, err := k.NodeOf(b.offer.Object)
	if err != nil {
		return err
	}
	k.nextInv++
	id := k.nextInv
	k.pending[id] = &pendingInv{
		cb: func(res string, err error) {
			b.Invocations++
			done(res, err)
		},
		binding: b.id, client: b.client, object: b.offer.Object, op: op,
	}
	k.emit(Event{Kind: EvInvoke, Binding: b.id, Client: b.client, Object: b.offer.Object, Op: op, At: k.sim.Now()})
	msg := &invokeMsg{ID: id, Object: b.offer.Object, Iface: b.offer.Interface, Op: op, Caller: b.client, Arg: arg}
	ep, ok := k.eps[b.client]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnattached, b.client)
	}
	return ep.Send(serverNode, msg, len(arg)+48)
}

// Unbind tears the binding down.
func (b *OpBinding) Unbind() {
	if !b.bound {
		return
	}
	b.bound = false
	b.kernel.emit(Event{Kind: EvUnbound, Binding: b.id, Client: b.client, Object: b.offer.Object, At: b.kernel.sim.Now()})
}
