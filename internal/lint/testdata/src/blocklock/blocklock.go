// Package blocklock exercises the stage-4 half of the block-lock rule:
// blocking I/O reachable through call chains while a mutex is held (the
// retired lock-send walk only saw same-package Sends), branch-aware lock
// state (an early unlock on one path no longer masks the fallthrough), and
// the //cscw:hotpath surface (hard-blocking operations on the hot path,
// with provably-buffered channel sends exempt).
package blocklock

import (
	"os"
	"sync"
	"time"
)

type srv struct {
	mu  sync.Mutex
	f   *os.File
	buf []byte
}

// badRead blocks on the kernel while holding the state lock: the new rule
// classifies os.File reads as blocking I/O, which lock-send never did.
func (s *srv) badRead() {
	s.mu.Lock()
	_, _ = s.f.Read(s.buf) // want "block-lock.*File.Read .blocking I/O. while blocklock.srv.mu is held"
	s.mu.Unlock()
}

// badBranchMasked held the lock on the fallthrough path; the retired linear
// walk saw the unlock in the early-return branch and went quiet. The
// branch-aware walker merges states per path and still sees the lock.
func (s *srv) badBranchMasked(fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		return
	}
	time.Sleep(time.Millisecond) // want "block-lock.*time.Sleep while blocklock.srv.mu is held"
	s.mu.Unlock()
}

func (s *srv) drain() {
	tmp := make([]byte, 16)
	_, _ = s.f.Read(tmp)
}

func (s *srv) flush() {
	s.drain()
}

// badDeep reaches the file read two helpers down; the call-graph summary
// carries drain's blocking description up through flush.
func (s *srv) badDeep() {
	s.mu.Lock()
	s.flush() // want "block-lock.*call to flush .which performs File.Read .blocking I/O.. while blocklock.srv.mu is held"
	s.mu.Unlock()
}

// okReadOutside is the prepare-under-lock / read-outside discipline.
func (s *srv) okReadOutside() {
	s.mu.Lock()
	n := len(s.buf)
	s.mu.Unlock()
	tmp := make([]byte, n)
	_, _ = s.f.Read(tmp)
}

// --- hot-path surface -----------------------------------------------------

type pipes struct {
	out chan int // buffered: the batch window the hot path hands off to
	ack chan int // unbuffered rendezvous
}

func newPipes() *pipes {
	return &pipes{
		out: make(chan int, 8),
		ack: make(chan int),
	}
}

// hotSend may hand frames to the buffered batch queue (it only blocks when
// full, which is the backpressure contract) but not rendezvous on the
// unbuffered ack channel.
//
//cscw:hotpath
func (p *pipes) hotSend(v int) {
	p.out <- v
	p.ack <- v // want "block-lock.*channel send in hot-path function hotSend .*cscw:hotpath.*the hot path must not block"
}

// hotSleep parks the hot goroutine on a timer.
//
//cscw:hotpath
func (p *pipes) hotSleep() {
	time.Sleep(time.Millisecond) // want "block-lock.*time.Sleep in hot-path function hotSleep"
}

//cscw:hotpath
func (p *pipes) hotDrive() {
	p.waitAck()
}

// waitAck is hot by propagation: hotDrive reaches it, so its rendezvous
// receive is on the hot path even without its own annotation.
func (p *pipes) waitAck() {
	<-p.ack // want "block-lock.*channel receive in hot-path function waitAck .reached from //cscw:hotpath function hotDrive.. the hot path must not block"
}

type link struct{}

func (link) Send(v int) error { return nil }

// okHotHand: handing a frame to the transport is the hot path's one job;
// declared Send methods are priced by the transport itself, not refused.
//
//cscw:hotpath
func (p *pipes) okHotHand(l link) {
	_ = l.Send(1)
}

// okHotPoll: a select with a default cannot block.
//
//cscw:hotpath
func (p *pipes) okHotPoll() int {
	select {
	case v := <-p.out:
		return v
	default:
		return 0
	}
}

// --- loop exits and post statements ---------------------------------------

type feed struct {
	mu   sync.Mutex
	done bool
	n    int
	ch   chan int
}

// okBreakUnlocked leaves the loop only through the break, which has
// released the lock: nothing is held at the send. A walk that drops break
// paths and resumes after the loop with the state it entered with reports a
// lock that is no longer there.
func (f *feed) okBreakUnlocked(v int) {
	f.mu.Lock()
	for {
		if f.done {
			f.mu.Unlock()
			break
		}
		f.n++
	}
	f.ch <- v
}

// badPostSend sends from the for statement's post clause, once per
// iteration, with the deferred unlock still pending.
func (f *feed) badPostSend() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < f.n; f.ch <- i { // want "block-lock.*channel send while blocklock.feed.mu is held"
		i++
	}
}

// --- long helper chains ---------------------------------------------------

type ring struct {
	mu  sync.Mutex
	out chan int
}

// badDeepChain sends fourteen helpers down while holding r.mu. The helpers
// are declared callers-first, so a pass over them in source order learns
// one level of the chain per round: a summary loop that stops after a fixed
// number of rounds leaves step1 looking non-blocking and the call unseen.
func (r *ring) badDeepChain(v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	step1(r.out, v) // want "block-lock.*call to step1 .which performs a channel send. while blocklock.ring.mu is held"
}

func step1(c chan int, v int)  { step2(c, v) }
func step2(c chan int, v int)  { step3(c, v) }
func step3(c chan int, v int)  { step4(c, v) }
func step4(c chan int, v int)  { step5(c, v) }
func step5(c chan int, v int)  { step6(c, v) }
func step6(c chan int, v int)  { step7(c, v) }
func step7(c chan int, v int)  { step8(c, v) }
func step8(c chan int, v int)  { step9(c, v) }
func step9(c chan int, v int)  { step10(c, v) }
func step10(c chan int, v int) { step11(c, v) }
func step11(c chan int, v int) { step12(c, v) }
func step12(c chan int, v int) { step13(c, v) }
func step13(c chan int, v int) { step14(c, v) }
func step14(c chan int, v int) { c <- v }

// --- deferred unlocks on one path -------------------------------------------

type box struct {
	mu   sync.Mutex
	aux  sync.Mutex
	idle bool
	out  chan int
}

// tidy returns before it takes aux on one path and defers aux's unlock on
// the other: neither path releases a lock tidy did not take. A deferred
// unlock applied after the exit paths merge reads the early return as
// releasing the caller's lock.
func (b *box) tidy() {
	if b.idle {
		return
	}
	b.aux.Lock()
	defer b.aux.Unlock()
}

// badTidySend still holds b.mu after tidy returns.
func (b *box) badTidySend(v int) {
	b.mu.Lock()
	b.tidy()
	b.out <- v // want "block-lock.*channel send while blocklock.box.mu is held"
	b.mu.Unlock()
}
