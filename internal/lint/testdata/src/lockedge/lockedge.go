// Package lockedge exercises the walker's precision on the edge cases the
// interprocedural analyzers must not trip over: defer-unlock against early
// returns, TryLock branch sensitivity, locks passed by pointer through
// helpers, and re-entrant (enter-locked) method calls. Loaded by
// lint_test.go under a path in module scope.
package lockedge

import "sync"

type box struct {
	mu  sync.Mutex
	val int
	set bool
}

// Early return under defer-unlock: the lock is held to the end of every
// path, so no access is flagged.
func (b *box) earlyReturn(v int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if v < 0 {
		return -1
	}
	b.val = v
	b.set = true
	return b.val
}

// Manual unlock on the early arm, fallthrough on the other: the branch
// states merge by intersection, and the accesses on the locked arm pass.
func (b *box) branchUnlock(v int) {
	b.mu.Lock()
	if v < 0 {
		b.mu.Unlock()
		return
	}
	b.val = v
	b.mu.Unlock()
}

// After a non-returning unlocked arm merges back in, the lock is no longer
// provably held — the write below the if is a real candidate.
func (b *box) badAfterMerge(v int) {
	b.mu.Lock()
	if v < 0 {
		b.mu.Unlock()
	} else {
		b.mu.Unlock()
	}
	b.val = v // want "guard-infer.*box.val.*written here"
}

// TryLock acquires only on the success branch.
func (b *box) try(v int) bool {
	if b.mu.TryLock() {
		b.val = v
		b.mu.Unlock()
		return true
	}
	return false
}

// Outside the if, neither path holds the lock anymore.
func (b *box) tryBad(v int) {
	if b.mu.TryLock() {
		b.mu.Unlock()
	}
	b.set = true // want "guard-infer.*box.set.*written here"
}

// --- locks passed by pointer through helpers -----------------------------

func lockBoth(a, b *sync.Mutex) {
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
}

type pair struct {
	first  sync.Mutex
	second sync.Mutex
}

// A lock-balanced helper taking both mutexes by pointer: nothing held after.
func (p *pair) use() {
	lockBoth(&p.first, &p.second)
}

func (p *pair) useAgain() {
	lockBoth(&p.first, &p.second)
}

type revpair struct {
	left  sync.Mutex
	right sync.Mutex
}

// The same helper with its arguments swapped is as lock-neutral at each
// call site, whichever order it takes them in.
func (r *revpair) forward() {
	lockBoth(&r.left, &r.right)
}

func (r *revpair) backward() {
	lockBoth(&r.right, &r.left)
}

// --- re-entrant method calls (enter-locked helpers) ----------------------

type hub struct {
	mu   sync.Mutex
	cbs  []func()
	busy bool
}

func (h *hub) post(fn func()) {
	h.mu.Lock()
	h.cbs = append(h.cbs, fn)
	h.run()
}

// run is called with h.mu held and returns with it released; the release
// and re-acquire in the loop must sum to one release (delta -1), and the
// field accesses must inherit the entry lock.
func (h *hub) run() {
	if h.busy {
		h.mu.Unlock()
		return
	}
	h.busy = true
	for len(h.cbs) > 0 {
		batch := h.cbs
		h.cbs = nil
		h.mu.Unlock()
		for _, fn := range batch {
			fn()
		}
		h.mu.Lock()
	}
	h.busy = false
	h.mu.Unlock()
}
