// Package locks exercises the mutex half of the block-lock rule (the
// classic cases inherited from the retired lock-send linear walk). Loaded
// by lint_test.go under a path in lock scope.
package locks

import (
	"sync"
	"time"
)

type conn struct{}

func (conn) Send(to string, body any, size int) error { return nil }

type node struct {
	mu sync.Mutex
	rw sync.RWMutex
	wg sync.WaitGroup
	ch chan int
	c  conn
}

func (n *node) badSend() {
	n.mu.Lock()
	_ = n.c.Send("a", nil, 0) // want "block-lock.*a Send while locks.node.mu is held"
	n.mu.Unlock()
}

func (n *node) badRLock() {
	n.rw.RLock()
	_ = n.c.Send("a", nil, 0) // want "block-lock.*a Send while locks.node.rw is held"
	n.rw.RUnlock()
}

func (n *node) badChannel() {
	n.mu.Lock()
	n.ch <- 1 // want "block-lock.*channel send while locks.node.mu is held"
	<-n.ch    // want "block-lock.*channel receive while locks.node.mu is held"
	n.mu.Unlock()
}

func (n *node) badSleep() {
	n.mu.Lock()
	time.Sleep(time.Millisecond) // want "block-lock.*time.Sleep while locks.node.mu is held"
	n.mu.Unlock()
}

func (n *node) badWait() {
	n.mu.Lock()
	n.wg.Wait() // want "block-lock.*WaitGroup.Wait while locks.node.mu is held"
	n.mu.Unlock()
}

func (n *node) badSelect() {
	n.mu.Lock()
	select { // want "block-lock.*select with no default"
	case v := <-n.ch:
		_ = v
	}
	n.mu.Unlock()
}

func (n *node) helper() {
	_ = n.c.Send("a", nil, 0)
}

// badIndirect blocks through a same-package callee: the summary pass
// propagates helper's Send to the locked call site.
func (n *node) badIndirect() {
	n.mu.Lock()
	n.helper() // want "block-lock.*call to helper .which performs a Send"
	n.mu.Unlock()
}

// okAfterUnlock is the prepare-under-lock / send-outside discipline.
func (n *node) okAfterUnlock() {
	n.mu.Lock()
	to := "a"
	n.mu.Unlock()
	_ = n.c.Send(to, nil, 0)
}

// release returns with the caller's lock released (net delta -1), like the
// repo's runCallbacks helpers.
func (n *node) release() {
	n.mu.Unlock()
}

// okCalleeReleases: the callee's negative lock delta means the Send after it
// runs unlocked.
func (n *node) okCalleeReleases() {
	n.mu.Lock()
	n.release()
	_ = n.c.Send("a", nil, 0)
}

// okQueued captures the send in a function literal executed after unlock;
// literals are separate analysis units.
func (n *node) okQueued() {
	var cbs []func()
	n.mu.Lock()
	cbs = append(cbs, func() { _ = n.c.Send("a", nil, 0) })
	n.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
}

// okSelectDefault: a select with a default cannot block.
func (n *node) okSelectDefault() {
	n.mu.Lock()
	select {
	case n.ch <- 1:
	default:
	}
	n.mu.Unlock()
}

// releaseThenSend is entered locked, releases the caller's lock and then
// sends: the shape of the repo's runCallbacks flushing a queued send inline.
func (n *node) releaseThenSend() {
	n.mu.Unlock()
	_ = n.c.Send("a", nil, 0)
}

// okCalleeSendsAfterRelease: the callee's Send runs after it released the
// caller's lock, so the call made under the lock does not block under it.
func (n *node) okCalleeSendsAfterRelease() {
	n.mu.Lock()
	n.releaseThenSend()
}
