package locks

import (
	"math/rand"
	"testing"
	"time"
)

// pathConflicts reports whether two lock paths conflict (one is an ancestor
// of or equal to the other).
func pathConflicts(a, b Path) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRandomizedMutualExclusionInvariant drives the pessimistic manager
// with a random acquire/release workload and checks, after every step, the
// safety invariant: no two holders on conflicting paths unless both are
// shared.
func TestRandomizedMutualExclusionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := NewManager(Pessimistic, Options{})
	users := []string{"u1", "u2", "u3", "u4", "u5"}

	type held struct {
		path Path
		mode Mode
	}
	holdings := map[string]*held{} // one lock per user keeps the model simple
	queued := map[string]bool{}

	// Track grants from the queue via events.
	pendingPath := map[string]held{}
	m.opts.Emit = func(e Event) {
		if e.Type == EvGranted {
			if h, ok := pendingPath[e.Who]; ok && queued[e.Who] {
				holdings[e.Who] = &held{path: h.path, mode: h.mode}
				delete(queued, e.Who)
				delete(pendingPath, e.Who)
			}
		}
	}

	randPath := func() Path {
		p := Path{"doc"}
		depth := 1 + rng.Intn(3)
		for i := 0; i < depth; i++ {
			p = append(p, string(rune('a'+rng.Intn(3))))
		}
		return p
	}

	checkInvariant := func(step int) {
		for ua, ha := range holdings {
			for ub, hb := range holdings {
				if ua >= ub {
					continue
				}
				if pathConflicts(ha.path, hb.path) && !(ha.mode == Shared && hb.mode == Shared) {
					t.Fatalf("step %d: %s(%s %s) conflicts with %s(%s %s)",
						step, ua, ha.path, ha.mode, ub, hb.path, hb.mode)
				}
			}
		}
	}

	for step := 0; step < 4000; step++ {
		u := users[rng.Intn(len(users))]
		now := time.Duration(step) * time.Millisecond
		switch {
		case holdings[u] != nil: // holding: release
			if err := m.Release(holdings[u].path, u, now); err != nil {
				t.Fatalf("step %d release: %v", step, err)
			}
			delete(holdings, u)
		case queued[u]: // waiting: nothing to do
		default: // idle: acquire
			p := randPath()
			mode := Shared
			if rng.Intn(2) == 0 {
				mode = Exclusive
			}
			pendingPath[u] = held{path: p, mode: mode}
			res, err := m.Acquire(p, u, mode, now)
			if err != nil {
				t.Fatalf("step %d acquire: %v", step, err)
			}
			if res.Granted {
				holdings[u] = &held{path: p, mode: mode}
				delete(pendingPath, u)
			} else {
				queued[u] = true
			}
		}
		checkInvariant(step)
	}
	// Drain: release everything, everyone queued must eventually grant.
	for u, h := range holdings {
		m.Release(h.path, u, time.Hour)
		delete(holdings, u)
	}
	for u := range queued {
		_ = u // grants happened via emit; holdings updated there
	}
	checkInvariant(-1)
	if len(m.waiters) != 0 && len(holdings) == 0 {
		// Queue can only be non-empty if grants chained into new conflicts
		// among the queued themselves, which drainQueue resolves greedily —
		// with all locks released, nothing may remain.
		// (holdings map was refilled by emit for queued grants.)
		remaining := len(m.waiters)
		granted := 0
		for range holdings {
			granted++
		}
		if remaining > 0 && granted == 0 {
			t.Fatalf("queue stuck at %d with nothing held", remaining)
		}
	}
}

// TestQueuedWaiterCancelKeepsInvariant mixes in waiter cancellation.
func TestQueuedWaiterCancelKeepsInvariant(t *testing.T) {
	m := NewManager(Pessimistic, Options{})
	if _, err := m.Acquire(Path{"d"}, "a", Exclusive, 0); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"b", "c", "d"} {
		if _, err := m.Acquire(Path{"d"}, u, Exclusive, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.CancelWaiters("c"); n != 1 {
		t.Fatalf("cancelled %d", n)
	}
	m.Release(Path{"d"}, "a", 1)
	if got := holdersOf(m, Path{"d"}); len(got) != 1 || got[0] != "b" {
		t.Fatalf("holders = %v", got)
	}
	m.Release(Path{"d"}, "b", 2)
	if got := holdersOf(m, Path{"d"}); len(got) != 1 || got[0] != "d" {
		t.Fatalf("holders = %v (c was cancelled)", got)
	}
}
