// Package chanproto exercises the channel-lifecycle analyzer: sender-side
// close (the done-channel idiom stays legal), CFG-path double close and
// send-after-close (including closes hidden behind $param helpers and
// defers, and distinct instances of one class staying independent), the
// locked unbuffered rendezvous, and closes of captured channels inside
// re-invocable callback closures.
package chanproto

import "sync"

type w struct {
	jobs chan int
	done chan struct{}
}

func newW() *w {
	return &w{jobs: make(chan int), done: make(chan struct{})}
}

func (x *w) produce(v int) {
	x.jobs <- v
}

// badConsumerClose closes the work channel from the receiving side while
// produce still sends on it: the close races the send, and a send on a
// closed channel panics.
func (x *w) badConsumerClose() {
	for range x.jobs {
	}
	close(x.jobs) // want "chan-proto.*close of chanproto.w.jobs on the receiving side: produce still sends on it"
}

// okDoneClose: nobody ever sends on done — the close IS the broadcast.
func (x *w) okDoneClose() {
	close(x.done)
}

func closeChan(c chan int) {
	close(c)
}

// badHelperDouble closes the same channel twice, the second close hidden
// behind a helper; $param substitution anchors it to the same instance.
func badHelperDouble() {
	c := make(chan int)
	close(c)
	closeChan(c) // want "chan-proto.*close of chanproto.badHelperDouble.c .via closeChan. is reachable more than once on a path through badHelperDouble"
}

// badBranchClose: the conditional close and the unconditional one share a
// path.
func badBranchClose(stop bool) chan int {
	c := make(chan int)
	if stop {
		close(c)
	}
	close(c) // want "chan-proto.*close of chanproto.badBranchClose.c is reachable more than once on a path through badBranchClose"
	return c
}

// badSendAfterClose: the compiler accepts it, the runtime panics.
func badSendAfterClose() {
	c := make(chan int, 1)
	close(c)
	c <- 1 // want "chan-proto.*send on chanproto.badSendAfterClose.c is reachable after its close in badSendAfterClose"
}

// badDeferClose: the deferred close runs last, after the explicit one.
func badDeferClose() {
	c := make(chan int)
	defer close(c) // want "chan-proto.*deferred close of chanproto.badDeferClose.c runs after another close of the same channel in badDeferClose"
	close(c)
}

type pair struct{ done chan struct{} }

// okTwoInstances closes two different channels that share a class; the
// instance anchors keep them apart.
func okTwoInstances(a, b *pair) {
	close(a.done)
	close(b.done)
}

// --- locked rendezvous ----------------------------------------------------

type h struct {
	mu   sync.Mutex
	hand chan int
}

func newH() *h {
	return &h{hand: make(chan int)}
}

// badLockedSend performs an unbuffered send under the same lock every
// receiver needs: the rendezvous can never complete. Both halves of the
// suite see it — chan-proto proves the deadlock, block-lock objects to any
// channel send under a lock.
func (x *h) badLockedSend(v int) {
	x.mu.Lock()
	x.hand <- v // want "chan-proto.*unbuffered send on chanproto.h.hand while chanproto.h.mu is held, and every receive of chanproto.h.hand also holds chanproto.h.mu" "block-lock.*channel send while chanproto.h.mu is held"
	x.mu.Unlock()
}

func (x *h) recvLocked() int {
	x.mu.Lock()
	v := <-x.hand // want "block-lock.*channel receive while chanproto.h.mu is held"
	x.mu.Unlock()
	return v
}

type mbox struct {
	mu sync.Mutex
	q  chan int
}

func newMbox() *mbox {
	return &mbox{q: make(chan int, 16)}
}

// okBufferedPoll: the queue is provably buffered and the select has a
// default; neither rule objects.
func (x *mbox) okBufferedPoll() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	select {
	case v := <-x.q:
		return v
	default:
		return 0
	}
}

func (x *mbox) okSendOutside(v int) {
	x.q <- v
}

// --- callback closes ------------------------------------------------------

type reg struct {
	onJoin func()
}

// badCallbackClose installs a callback that closes a captured channel; a
// host that re-fires the callback (a rejoin ack) panics the second time.
func badCallbackClose(r *reg) chan struct{} {
	joined := make(chan struct{})
	r.onJoin = func() {
		close(joined) // want "chan-proto.*close of captured joined inside a callback closure"
	}
	return joined
}

type pending struct {
	acked chan struct{}
}

// badCallbackCloseField: the same close, of a captured value's field.
func badCallbackCloseField(r *reg) *pending {
	p := &pending{acked: make(chan struct{})}
	r.onJoin = func() {
		close(p.acked) // want "chan-proto.*close of captured p.acked inside a callback closure"
	}
	return p
}

// okOnceCallback is the sanctioned guard for exactly that shape.
func okOnceCallback(r *reg) chan struct{} {
	joined := make(chan struct{})
	var once sync.Once
	r.onJoin = func() {
		once.Do(func() { close(joined) })
	}
	return joined
}

// okImmediate: a literal invoked where it appears runs exactly once.
func okImmediate() {
	done := make(chan struct{})
	func() { close(done) }()
	<-done
}
