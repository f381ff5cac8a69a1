// Package txn implements the two concurrency-control worlds that Figure 2 of
// the paper contrasts:
//
//   - Conventional serialisable atomic transactions (strict two-phase
//     locking over the pessimistic lock manager, with undo on abort) — the
//     "walls between users" of Figure 2a. Deadlocks are resolved by
//     timeout-abort, the strategy of most contemporary systems.
//   - Transaction groups (Skarra & Zdonik 1989) — serialisability replaced
//     by semantic access rules that encode a *tailorable cooperation
//     policy*; members' operations apply immediately to a group store and
//     other members are notified, giving the "information flow between
//     users" of Figure 2b.
//
// Experiment F2 runs the same editing workload through both and measures
// response time, blocking and awareness (notification) flow.
package txn

import (
	"errors"
	"fmt"
	"sort"
)

// Errors returned by the transaction layer.
var (
	ErrTxnDone    = errors.New("txn: transaction already committed or aborted")
	ErrWouldBlock = errors.New("txn: operation is waiting for a lock")
	ErrDenied     = errors.New("txn: operation denied by group access rules")
	ErrNotMember  = errors.New("txn: user is not a member of the group")
)

// Store is a simple versioned key-value object store standing in for the
// shared information space of Figure 2 (a document, a design database...).
// It is deliberately single-threaded; over netsim everything runs on the
// simulator goroutine.
type Store struct {
	vals     map[string]string
	versions map[string]uint64
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{vals: make(map[string]string), versions: make(map[string]uint64)}
}

// Get returns the value and whether it exists.
func (s *Store) Get(key string) (string, bool) {
	v, ok := s.vals[key]
	return v, ok
}

// Version returns the monotonically increasing version of a key (0 if never
// written).
func (s *Store) Version(key string) uint64 { return s.versions[key] }

// Set writes a value, bumping the version.
func (s *Store) Set(key, val string) {
	s.vals[key] = val
	s.versions[key]++
}

// Delete removes a key (version still bumps, so observers can detect it).
func (s *Store) Delete(key string) {
	delete(s.vals, key)
	s.versions[key]++
}

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.vals) }

// Keys returns the live keys, sorted.
func (s *Store) Keys() []string {
	out := make([]string, 0, len(s.vals))
	for k := range s.vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns an independent copy of the store contents.
func (s *Store) Snapshot() map[string]string {
	out := make(map[string]string, len(s.vals))
	for k, v := range s.vals {
		out[k] = v
	}
	return out
}

// undoRecord captures the prior state of one key for abort processing.
type undoRecord struct {
	key      string
	hadValue bool
	oldValue string
}

func (s *Store) apply(key, val string) undoRecord {
	old, had := s.vals[key]
	s.Set(key, val)
	return undoRecord{key: key, hadValue: had, oldValue: old}
}

func (s *Store) undo(recs []undoRecord) {
	// Undo in reverse order so multiple writes to one key restore correctly.
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.hadValue {
			s.Set(r.key, r.oldValue)
		} else {
			s.Delete(r.key)
		}
	}
}

// keyPath converts a store key into a lock path. Keys may be hierarchical
// ("doc/s1/p3"), mapping directly onto the lock granularity tree.
func keyPath(key string) []string {
	var segs []string
	start := 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == '/' {
			if i > start {
				segs = append(segs, key[start:i])
			}
			start = i + 1
		}
	}
	if len(segs) == 0 {
		segs = []string{key}
	}
	return segs
}

// fmtTxnID builds the lock-principal name for a transaction.
func fmtTxnID(n uint64) string { return fmt.Sprintf("txn-%d", n) }
