// Package recursion holds self-recursive locking functions whose lock
// summaries must not depend on how many times a fixpoint goes round:
// callgraph_test.go pins them, and summaries.golden renders them. It is not a
// TestFixtures package: the fixture is about summaries, not diagnostics, and
// the suite has no rule for a function that keeps a lock it took.
package recursion

import "sync"

var mu sync.Mutex

// grow takes mu and recurses: every level takes it again.
func grow() {
	mu.Lock()
	grow()
}

// based takes mu and recurses until n runs out.
func based(n int) {
	mu.Lock()
	if n > 0 {
		based(n - 1)
	}
}

// drain releases the caller's mu and recurses.
func drain(n int) {
	mu.Unlock()
	if n > 0 {
		drain(n - 1)
	}
}
