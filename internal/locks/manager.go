package locks

import (
	"fmt"
	"sort"
	"time"
)

// Options configures a Manager.
type Options struct {
	// TickleIdle is how long a holder may be idle before a tickle
	// dispossesses it (Tickle discipline only). Zero means holders are
	// dispossessed on any tickle.
	TickleIdle time.Duration
	// Emit receives lock events; nil discards them.
	Emit func(Event)
}

// Stats aggregates manager activity for the experiment harnesses.
type Stats struct {
	Acquires     int
	Grants       int // immediate grants
	Queues       int
	QueueGrants  int // grants made later, off the queue
	Conflicts    int // acquire attempts that met a conflicting holder
	Revocations  int // tickle transfers
	Warnings     int // soft-lock conflict warnings (one per overlapping pair)
	ChangeNotifs int // notification-lock change events delivered
	TotalWait    time.Duration
}

// MeanWait returns the mean queue wait across queue grants.
func (s Stats) MeanWait() time.Duration {
	if s.QueueGrants == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.QueueGrants)
}

type holding struct {
	who     string
	mode    Mode
	granted time.Duration // a holder counts as idle from its grant on
}

type node struct {
	name     string
	parent   *node
	children map[string]*node
	holders  map[string]*holding
	watchers map[string]bool // notification-discipline registered readers
	// subtree holder counts (including this node), by mode, for fast
	// descendant-conflict short-circuiting.
	subShared int
	subExcl   int
}

func (n *node) child(name string) *node {
	c, ok := n.children[name]
	if !ok {
		c = &node{name: name, parent: n, children: make(map[string]*node), holders: make(map[string]*holding), watchers: make(map[string]bool)}
		n.children[name] = c
	}
	return c
}

func (n *node) bump(mode Mode, delta int) {
	for x := n; x != nil; x = x.parent {
		if mode == Shared {
			x.subShared += delta
		} else {
			x.subExcl += delta
		}
	}
}

type waiter struct {
	path  Path
	node  *node
	who   string
	mode  Mode
	since time.Duration
}

// Manager is a hierarchical lock manager with a selectable discipline. It is
// not safe for concurrent use; the layers above serialize access (over
// netsim everything runs on the simulator goroutine).
type Manager struct {
	discipline Discipline
	opts       Options
	root       *node
	waiters    []*waiter
	stats      Stats
}

// NewManager creates a lock manager with the given discipline.
func NewManager(d Discipline, opts Options) *Manager {
	return &Manager{
		discipline: d,
		opts:       opts,
		root:       &node{children: make(map[string]*node), holders: make(map[string]*holding), watchers: make(map[string]bool)},
	}
}

// Stats returns a copy of the accumulated statistics.
func (m *Manager) Stats() Stats { return m.stats }

func (m *Manager) emit(e Event) {
	if m.opts.Emit != nil {
		m.opts.Emit(e)
	}
}

func (m *Manager) locate(p Path) *node {
	n := m.root
	for _, seg := range p {
		n = n.child(seg)
	}
	return n
}

func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// conflictsFor collects holders that conflict with a request by who at n
// with the given mode: incompatible holders at n itself, on any ancestor,
// or anywhere in n's subtree.
func (m *Manager) conflictsFor(n *node, who string, mode Mode) []*nodeHolder {
	var out []*nodeHolder
	add := func(x *node) {
		// Sorted holder order: the conflict list drives wound/wait and
		// tickle decisions, so its order must not depend on map iteration.
		whos := make([]string, 0, len(x.holders))
		for w := range x.holders {
			whos = append(whos, w)
		}
		sort.Strings(whos)
		for _, w := range whos {
			if h := x.holders[w]; h.who != who && !compatible(mode, h.mode) {
				out = append(out, &nodeHolder{node: x, holding: h})
			}
		}
	}
	// Ancestors (excluding n).
	for x := n.parent; x != nil; x = x.parent {
		add(x)
	}
	// Subtree (including n), pruned by the mode-aware counters.
	var walk func(x *node)
	walk = func(x *node) {
		if mode == Shared && x.subExcl == 0 {
			return // only exclusive holders can conflict with a shared request
		}
		if x.subShared+x.subExcl == 0 {
			return
		}
		add(x)
		for _, c := range x.children {
			walk(c)
		}
	}
	walk(n)
	sort.Slice(out, func(i, j int) bool { return out[i].holding.who < out[j].holding.who })
	return out
}

type nodeHolder struct {
	node    *node
	holding *holding
}

// Acquire requests the lock at path p for principal who. The semantics of a
// conflicting request depend on the discipline; see the package comment.
func (m *Manager) Acquire(p Path, who string, mode Mode, now time.Duration) (Result, error) {
	if len(p) == 0 || who == "" || (mode != Shared && mode != Exclusive) {
		return Result{}, fmt.Errorf("%w: path=%q who=%q mode=%d", ErrBadRequest, p.String(), who, mode)
	}
	n := m.locate(p)
	if _, held := n.holders[who]; held {
		return Result{}, fmt.Errorf("%w: %s at %s", ErrReentrant, who, p)
	}
	for _, w := range m.waiters {
		if w.node == n && w.who == who {
			return Result{}, fmt.Errorf("%w: %s queued at %s", ErrReentrant, who, p)
		}
	}
	m.stats.Acquires++
	conflicts := m.conflictsFor(n, who, mode)
	if len(conflicts) == 0 {
		m.grant(n, p, who, mode, now, false, 0)
		return Result{Granted: true}, nil
	}
	m.stats.Conflicts++

	switch m.discipline {
	case Soft:
		// Advisory: always grant, warn both parties of each overlap.
		for _, c := range conflicts {
			m.stats.Warnings++
			m.emit(Event{Type: EvConflictWarning, Path: p, Who: who, Other: c.holding.who, Mode: mode, At: now})
			m.emit(Event{Type: EvConflictWarning, Path: p, Who: c.holding.who, Other: who, Mode: c.holding.mode, At: now})
		}
		m.grant(n, p, who, mode, now, false, 0)
		return Result{Granted: true, Warned: true}, nil

	case Notification:
		if mode == Shared {
			// Readers proceed; register for change notification against the
			// conflicting writers' nodes.
			for _, c := range conflicts {
				c.node.watchers[who] = true
			}
			m.grant(n, p, who, mode, now, false, 0)
			return Result{Granted: true, Warned: true}, nil
		}
		m.enqueue(n, p, who, mode, now)
		return Result{Queued: true}, nil

	case Tickle:
		allIdle := true
		for _, c := range conflicts {
			if now-c.holding.granted < m.opts.TickleIdle {
				allIdle = false
			}
		}
		if allIdle {
			for _, c := range conflicts {
				m.stats.Revocations++
				delete(c.node.holders, c.holding.who)
				c.node.bump(c.holding.mode, -1)
				m.emit(Event{Type: EvRevoked, Path: pathOf(c.node), Who: c.holding.who, Other: who, Mode: c.holding.mode, At: now})
			}
			m.grant(n, p, who, mode, now, false, 0)
			return Result{Granted: true}, nil
		}
		for _, c := range conflicts {
			m.emit(Event{Type: EvTickled, Path: pathOf(c.node), Who: c.holding.who, Other: who, Mode: c.holding.mode, At: now})
		}
		m.enqueue(n, p, who, mode, now)
		return Result{Queued: true}, nil

	default: // Pessimistic
		m.enqueue(n, p, who, mode, now)
		return Result{Queued: true}, nil
	}
}

func pathOf(n *node) Path {
	var segs []string
	for x := n; x != nil && x.parent != nil; x = x.parent {
		segs = append(segs, x.name)
	}
	// reverse
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return Path(segs)
}

func (m *Manager) grant(n *node, p Path, who string, mode Mode, now time.Duration, fromQueue bool, since time.Duration) {
	n.holders[who] = &holding{who: who, mode: mode, granted: now}
	n.bump(mode, +1)
	if fromQueue {
		m.stats.QueueGrants++
		m.stats.TotalWait += now - since
	} else {
		m.stats.Grants++
	}
	m.emit(Event{Type: EvGranted, Path: p, Who: who, Mode: mode, At: now})
}

func (m *Manager) enqueue(n *node, p Path, who string, mode Mode, now time.Duration) {
	m.stats.Queues++
	m.waiters = append(m.waiters, &waiter{path: p, node: n, who: who, mode: mode, since: now})
	m.emit(Event{Type: EvQueued, Path: p, Who: who, Mode: mode, At: now})
}

// Release gives up who's lock at path p. Queued compatible waiters are
// granted in FIFO order; under the Notification discipline registered
// readers are told the resource changed.
func (m *Manager) Release(p Path, who string, now time.Duration) error {
	n := m.locate(p)
	h, ok := n.holders[who]
	if !ok {
		return fmt.Errorf("%w: %s at %s", ErrNotHolder, who, p)
	}
	delete(n.holders, who)
	n.bump(h.mode, -1)
	m.emit(Event{Type: EvReleased, Path: p, Who: who, Mode: h.mode, At: now})
	if m.discipline == Notification && h.mode == Exclusive && len(n.watchers) > 0 {
		names := make([]string, 0, len(n.watchers))
		for w := range n.watchers {
			names = append(names, w)
		}
		sort.Strings(names)
		for _, w := range names {
			m.stats.ChangeNotifs++
			m.emit(Event{Type: EvChanged, Path: p, Who: w, Other: who, At: now})
		}
		n.watchers = make(map[string]bool)
	}
	m.drainQueue(now)
	return nil
}

// drainQueue grants every waiter that no longer conflicts, in FIFO order.
func (m *Manager) drainQueue(now time.Duration) {
	for {
		progressed := false
		remaining := m.waiters[:0]
		for _, w := range m.waiters {
			if len(m.conflictsFor(w.node, w.who, w.mode)) == 0 {
				m.grant(w.node, w.path, w.who, w.mode, now, true, w.since)
				progressed = true
			} else {
				remaining = append(remaining, w)
			}
		}
		m.waiters = remaining
		if !progressed {
			return
		}
	}
}

// CancelWaiters removes every queued request by who (used when a blocked
// transaction aborts) and returns how many were removed.
func (m *Manager) CancelWaiters(who string) int {
	removed := 0
	remaining := m.waiters[:0]
	for _, w := range m.waiters {
		if w.who == who {
			removed++
		} else {
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	return removed
}
