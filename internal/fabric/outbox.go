package fabric

import "sync"

// Outbox is the one way into a protocol owner that guards its state with a
// mutex: every entry point and accessor is one Do, which locks the mutex
// while the owner decides and queues what must happen — sends, application
// deliveries, other callbacks — then releases it and performs them in queue
// order. So a send that blocks over a real transport holds no state
// hostage, and a callback may re-enter its owner (a Multicast from inside a
// delivery): what that Do queues runs after the effects already queued. An
// effect queued outside a Do panics, so one that nothing performs cannot be
// written. The owner's mutex guards the outbox too.
type Outbox struct {
	mu      *sync.Mutex
	ep      Endpoint
	deliver func(payload any, seq uint64)

	queue    []effect
	spare    []effect // the last performed array, kept so a steady stream does not allocate
	deciding bool     // a Do's function is running, so effects may be queued
	draining bool     // a Do is performing
}

type effectKind uint8

const (
	effSend effectKind = iota
	effSendAll
	effDeliver
	effCall
)

// effect is one queued effect. The three steady-state kinds ride inline
// rather than as closures, so queueing them costs no allocation.
type effect struct {
	kind    effectKind
	to      string
	targets []string
	payload any
	size    int
	seq     uint64
	fn      func()
}

// NewOutbox returns the outbox of the owner whose state mu guards: it sends
// on ep and performs each Deliver by calling deliver.
func NewOutbox(mu *sync.Mutex, ep Endpoint, deliver func(payload any, seq uint64)) *Outbox {
	return &Outbox{mu: mu, ep: ep, deliver: deliver}
}

// Queue schedules one fire-and-forget send of payload to to.
func (o *Outbox) Queue(to string, payload any, size int) {
	o.add(effect{kind: effSend, to: to, payload: payload, size: size})
}

// QueueAll schedules a fire-and-forget send of payload to every target, in
// order. targets is read when the effect is performed, so the caller must
// not modify it afterwards.
func (o *Outbox) QueueAll(targets []string, payload any, size int) {
	o.add(effect{kind: effSendAll, targets: targets, payload: payload, size: size})
}

// Deliver schedules a call of the outbox's deliver function.
func (o *Outbox) Deliver(payload any, seq uint64) {
	o.add(effect{kind: effDeliver, payload: payload, seq: seq})
}

// Call schedules fn.
func (o *Outbox) Call(fn func()) {
	o.add(effect{kind: effCall, fn: fn})
}

func (o *Outbox) add(e effect) {
	if !o.deciding {
		panic("fabric: an effect queued outside Outbox.Do")
	}
	o.queue = append(o.queue, e)
}

// Do runs decide under the owner's mutex, then performs every queued effect
// with it released. One Do performs at a time: a Do entered while another
// performs returns once decide has run, and the performing one picks up
// what it queued. Send errors are dropped: a queued send is fire-and-forget,
// and its loss surfaces as whatever the protocol does about lost messages.
func (o *Outbox) Do(decide func()) {
	o.mu.Lock()
	o.deciding = true
	decide()
	o.deciding = false
	if o.draining {
		o.mu.Unlock()
		return
	}
	o.draining = true
	for len(o.queue) > 0 {
		batch := o.queue
		o.queue = o.spare[:0]
		o.spare = nil
		o.mu.Unlock()
		for i := range batch {
			o.perform(&batch[i])
		}
		o.mu.Lock()
		if o.spare == nil {
			clear(batch) // drop payload and closure references before recycling
			o.spare = batch[:0]
		}
	}
	o.draining = false
	o.mu.Unlock()
}

func (o *Outbox) perform(e *effect) {
	switch e.kind {
	case effSend:
		_ = o.ep.Send(e.to, e.payload, e.size)
	case effSendAll:
		for _, to := range e.targets {
			_ = o.ep.Send(to, e.payload, e.size)
		}
	case effDeliver:
		o.deliver(e.payload, e.seq)
	case effCall:
		e.fn()
	}
}
