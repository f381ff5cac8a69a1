package fabric

import "sync"

// Outbox is the one way a protocol owner that guards its state with a mutex
// performs effects: it decides under its lock and queues what must happen —
// sends, application deliveries, other callbacks — then calls Drain, which
// releases the lock and performs them in queue order. Nothing it performs
// runs under the owner's lock, so a send that blocks over a real transport
// holds no state hostage, and a callback may re-enter its owner (a Multicast
// from inside a delivery): the effects that re-entry queues run in the same
// drain, after the ones already queued.
//
// The outbox has no lock of its own: every method, Drain included, is called
// with the owner's mutex held, and that mutex guards the outbox too. Drain
// lets one goroutine perform at a time; a drain entered while another runs
// leaves its effects to the running one and returns at once.
type Outbox struct {
	ep      Endpoint
	deliver func(payload any, seq uint64)

	queue    []effect
	spare    []effect // the last drained array, kept so a steady stream does not allocate
	draining bool
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

// NewOutbox returns an outbox that sends on ep and performs each Deliver by
// calling deliver with the queued payload and sequence number.
func NewOutbox(ep Endpoint, deliver func(payload any, seq uint64)) *Outbox {
	return &Outbox{ep: ep, deliver: deliver}
}

// Queue schedules one fire-and-forget send of payload to to.
func (o *Outbox) Queue(to string, payload any, size int) {
	o.queue = append(o.queue, effect{kind: effSend, to: to, payload: payload, size: size})
}

// QueueAll schedules a fire-and-forget send of payload to every target, in
// order. targets is read when the effect is performed, so the caller must
// not modify it afterwards.
func (o *Outbox) QueueAll(targets []string, payload any, size int) {
	o.queue = append(o.queue, effect{kind: effSendAll, targets: targets, payload: payload, size: size})
}

// Deliver schedules a call of the outbox's deliver function.
func (o *Outbox) Deliver(payload any, seq uint64) {
	o.queue = append(o.queue, effect{kind: effDeliver, payload: payload, seq: seq})
}

// Call schedules fn.
func (o *Outbox) Call(fn func()) {
	o.queue = append(o.queue, effect{kind: effCall, fn: fn})
}

// Drain is called with mu, the owner's mutex, held and returns with it
// released, having performed every queued effect with mu released. A drain
// entered while another is performing returns at once; the running drain
// picks up what the nested one would have performed. Send errors are
// dropped: a queued send is fire-and-forget, and its loss surfaces as
// whatever the protocol does about lost messages.
func (o *Outbox) Drain(mu *sync.Mutex) {
	if o.draining {
		mu.Unlock()
		return
	}
	o.draining = true
	for len(o.queue) > 0 {
		batch := o.queue
		o.queue = o.spare[:0]
		o.spare = nil
		mu.Unlock()
		for i := range batch {
			o.perform(&batch[i])
		}
		mu.Lock()
		if o.spare == nil {
			clear(batch) // drop payload and closure references before recycling
			o.spare = batch[:0]
		}
	}
	o.draining = false
	mu.Unlock()
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
