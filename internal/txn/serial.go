package txn

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/locks"
)

// TxnState is a transaction's lifecycle state.
type TxnState int

const (
	// TxnActive means the transaction is running.
	TxnActive TxnState = iota + 1
	// TxnBlocked means it is parked waiting for a lock.
	TxnBlocked
	// TxnCommitted means it committed.
	TxnCommitted
	// TxnAborted means it aborted (voluntarily or by timeout).
	TxnAborted
)

// String returns the state name.
func (s TxnState) String() string {
	switch s {
	case TxnActive:
		return "active"
	case TxnBlocked:
		return "blocked"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	default:
		return fmt.Sprintf("TxnState(%d)", int(s))
	}
}

// SerialStats aggregates serialisable-manager activity for experiments.
type SerialStats struct {
	Begun          int
	Committed      int
	Aborted        int
	TimeoutAborts  int
	Blocks         int
	TotalBlockTime time.Duration
}

// Manager coordinates serialisable transactions over a store: strict 2PL
// through a pessimistic lock manager, undo-on-abort, timeout-based deadlock
// resolution. All entry points take the current (virtual) time.
type Manager struct {
	store   *Store
	lm      *locks.Manager
	next    uint64
	active  map[string]*Txn // lock-principal id -> txn
	timeout time.Duration
	stats   SerialStats
}

// NewManager creates a serialisable transaction manager over store.
// blockTimeout bounds how long a transaction may wait for a lock before
// CheckTimeouts aborts it (the deadlock resolution strategy); zero disables
// timeouts.
func NewManager(store *Store, blockTimeout time.Duration) *Manager {
	m := &Manager{
		store:   store,
		active:  make(map[string]*Txn),
		timeout: blockTimeout,
	}
	m.lm = locks.NewManager(locks.Pessimistic, locks.Options{Emit: m.onLockEvent})
	return m
}

// Stats returns accumulated statistics.
func (m *Manager) Stats() SerialStats { return m.stats }

// Txn is one serialisable transaction.
type Txn struct {
	mgr       *Manager
	id        string
	user      string
	state     TxnState
	began     time.Duration
	held      map[string]locks.Mode // lock path string -> mode held
	undo      []undoRecord
	pending   *pendingOp
	blockedAt time.Duration
	// OnUnblock, if set, is called when a parked operation is granted its
	// lock and completes. The harness uses it to resume the user's script.
	OnUnblock func(now time.Duration)
}

type pendingOp struct {
	key, value string
}

// Begin starts a transaction on behalf of user.
func (m *Manager) Begin(user string, now time.Duration) *Txn {
	m.next++
	t := &Txn{
		mgr:   m,
		id:    fmtTxnID(m.next),
		user:  user,
		state: TxnActive,
		began: now,
		held:  make(map[string]locks.Mode),
	}
	m.active[t.id] = t
	m.stats.Begun++
	return t
}

// User returns the owning user.
func (t *Txn) User() string { return t.user }

// acquire takes key's exclusive lock for the transaction. It returns
// ErrWouldBlock when the request was queued.
func (t *Txn) acquire(key string, now time.Duration) error {
	path := locks.Path(keyPath(key))
	ps := path.String()
	if _, ok := t.held[ps]; ok {
		return nil // already held
	}
	res, err := t.mgr.lm.Acquire(path, t.id, locks.Exclusive, now)
	if err != nil {
		return err
	}
	if res.Granted {
		t.held[ps] = locks.Exclusive
		return nil
	}
	t.state = TxnBlocked
	t.blockedAt = now
	t.mgr.stats.Blocks++
	return ErrWouldBlock
}

// Write sets key to value under an exclusive lock. When the lock is not
// immediately available the transaction parks and ErrWouldBlock is
// returned; the write completes on grant and OnUnblock fires. The store is
// updated immediately (undo restores it on abort), which matches the
// strict-2PL walls model: nobody else can see the write because nobody else
// can take the lock.
func (t *Txn) Write(key, value string, now time.Duration) error {
	if t.state == TxnCommitted || t.state == TxnAborted {
		return ErrTxnDone
	}
	if err := t.acquire(key, now); err != nil {
		if err == ErrWouldBlock {
			t.pending = &pendingOp{key: key, value: value}
		}
		return err
	}
	t.undo = append(t.undo, t.mgr.store.apply(key, value))
	return nil
}

// Commit makes the transaction's writes permanent and releases all locks.
func (t *Txn) Commit(now time.Duration) error {
	if t.state == TxnCommitted || t.state == TxnAborted {
		return ErrTxnDone
	}
	t.state = TxnCommitted
	t.undo = nil
	t.releaseAll(now)
	t.mgr.stats.Committed++
	delete(t.mgr.active, t.id)
	return nil
}

// Abort rolls back the transaction's writes and releases all locks.
func (t *Txn) Abort(now time.Duration) error {
	if t.state == TxnCommitted || t.state == TxnAborted {
		return ErrTxnDone
	}
	t.mgr.store.undo(t.undo)
	t.undo = nil
	t.state = TxnAborted
	t.releaseAll(now)
	t.mgr.stats.Aborted++
	delete(t.mgr.active, t.id)
	return nil
}

func (t *Txn) releaseAll(now time.Duration) {
	t.mgr.lm.CancelWaiters(t.id)
	for ps := range t.held {
		_ = t.mgr.lm.Release(locks.Path(keyPath(ps)), t.id, now)
	}
	t.held = make(map[string]locks.Mode)
	t.pending = nil
}

// onLockEvent resumes transactions whose queued lock requests are granted.
func (m *Manager) onLockEvent(e locks.Event) {
	if e.Type != locks.EvGranted {
		return
	}
	t, ok := m.active[e.Who]
	if !ok || t.state != TxnBlocked || t.pending == nil {
		return
	}
	op := t.pending
	t.pending = nil
	t.state = TxnActive
	t.held[e.Path.String()] = e.Mode
	m.stats.TotalBlockTime += e.At - t.blockedAt
	t.undo = append(t.undo, m.store.apply(op.key, op.value))
	if t.OnUnblock != nil {
		t.OnUnblock(e.At)
	}
}

// CheckTimeouts aborts every transaction blocked longer than the manager's
// timeout. It returns the aborted transactions. The experiment harness
// calls this periodically, standing in for a deadlock detector.
func (m *Manager) CheckTimeouts(now time.Duration) []*Txn {
	if m.timeout <= 0 {
		return nil
	}
	// Sorted id order: abort order feeds undo application and the event
	// trace, so it must not depend on map iteration.
	ids := make([]string, 0, len(m.active))
	for id := range m.active {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []*Txn
	for _, id := range ids {
		t := m.active[id]
		if t.state == TxnBlocked && now-t.blockedAt >= m.timeout {
			out = append(out, t)
		}
	}
	for _, t := range out {
		m.stats.TimeoutAborts++
		_ = t.Abort(now)
	}
	return out
}
