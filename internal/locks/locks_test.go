package locks

import (
	"errors"
	"sort"
	"testing"
	"time"
)

type recorder struct {
	events []Event
}

func (r *recorder) emit(e Event) { r.events = append(r.events, e) }

func (r *recorder) ofType(t EventType) []Event {
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// holdersOf lists the holders at exactly path p, sorted.
func holdersOf(m *Manager, p Path) []string {
	var out []string
	for who := range m.locate(p).holders {
		out = append(out, who)
	}
	sort.Strings(out)
	return out
}

func newMgr(d Discipline, idle time.Duration) (*Manager, *recorder) {
	r := &recorder{}
	return NewManager(d, Options{TickleIdle: idle, Emit: r.emit}), r
}

var (
	doc  = Path{"doc"}
	sec1 = Path{"doc", "s1"}
	sec2 = Path{"doc", "s2"}
	par  = Path{"doc", "s1", "p1"}
)

func mustAcquire(t *testing.T, m *Manager, p Path, who string, mode Mode, now time.Duration) Result {
	t.Helper()
	res, err := m.Acquire(p, who, mode, now)
	if err != nil {
		t.Fatalf("Acquire(%s,%s): %v", p, who, err)
	}
	return res
}

func TestPessimisticExclusiveConflict(t *testing.T) {
	m, r := newMgr(Pessimistic, 0)
	if res := mustAcquire(t, m, sec1, "alice", Exclusive, 0); !res.Granted {
		t.Fatal("first acquire should grant")
	}
	res := mustAcquire(t, m, sec1, "bob", Exclusive, time.Second)
	if !res.Queued || res.Granted {
		t.Fatalf("conflicting acquire = %+v, want queued", res)
	}
	if err := m.Release(sec1, "alice", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	grants := r.ofType(EvGranted)
	if len(grants) != 2 || grants[1].Who != "bob" {
		t.Fatalf("grants = %+v", grants)
	}
	st := m.Stats()
	if st.QueueGrants != 1 || st.MeanWait() != time.Second {
		t.Errorf("stats = %+v, mean wait %v", st, st.MeanWait())
	}
}

func TestSharedCompatible(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	mustAcquire(t, m, sec1, "alice", Shared, 0)
	res := mustAcquire(t, m, sec1, "bob", Shared, 0)
	if !res.Granted {
		t.Fatal("shared+shared should grant")
	}
	res = mustAcquire(t, m, sec1, "carol", Exclusive, 0)
	if !res.Queued {
		t.Fatal("exclusive over shared should queue")
	}
	m.Release(sec1, "alice", 0)
	if got := holdersOf(m, sec1); len(got) != 1 || got[0] != "bob" {
		t.Fatalf("holders = %v", got)
	}
	m.Release(sec1, "bob", 0)
	if got := holdersOf(m, sec1); len(got) != 1 || got[0] != "carol" {
		t.Fatalf("carol should be granted now, holders = %v", got)
	}
}

func TestHierarchyAncestorConflict(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	mustAcquire(t, m, doc, "alice", Exclusive, 0)
	res := mustAcquire(t, m, par, "bob", Exclusive, 0)
	if !res.Queued {
		t.Fatal("descendant of exclusively-held ancestor should queue")
	}
}

func TestHierarchyDescendantConflict(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	mustAcquire(t, m, par, "alice", Exclusive, 0)
	res := mustAcquire(t, m, doc, "bob", Exclusive, 0)
	if !res.Queued {
		t.Fatal("ancestor of exclusively-held descendant should queue")
	}
	// Sibling subtree is free.
	res = mustAcquire(t, m, sec2, "carol", Exclusive, 0)
	if !res.Granted {
		t.Fatal("sibling section should be free")
	}
}

func TestSharedAncestorExclusiveDescendant(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	mustAcquire(t, m, doc, "alice", Shared, 0)
	// A shared ancestor blocks an exclusive descendant...
	res := mustAcquire(t, m, sec1, "bob", Exclusive, 0)
	if !res.Queued {
		t.Fatal("exclusive under shared ancestor should queue")
	}
	// ...but a shared descendant is fine.
	res = mustAcquire(t, m, sec2, "carol", Shared, 0)
	if !res.Granted {
		t.Fatal("shared under shared should grant")
	}
}

func TestReentrantRejected(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	mustAcquire(t, m, sec1, "alice", Exclusive, 0)
	if _, err := m.Acquire(sec1, "alice", Shared, 0); !errors.Is(err, ErrReentrant) {
		t.Errorf("reacquire = %v", err)
	}
	mustAcquire(t, m, sec1, "bob", Exclusive, 0) // queued
	if _, err := m.Acquire(sec1, "bob", Exclusive, 0); !errors.Is(err, ErrReentrant) {
		t.Errorf("requeue = %v", err)
	}
}

func TestReleaseNotHolder(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	if err := m.Release(sec1, "ghost", 0); !errors.Is(err, ErrNotHolder) {
		t.Errorf("Release = %v", err)
	}
}

func TestBadRequest(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	if _, err := m.Acquire(nil, "a", Shared, 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nil path = %v", err)
	}
	if _, err := m.Acquire(sec1, "", Shared, 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("empty who = %v", err)
	}
	if _, err := m.Acquire(sec1, "a", Mode(9), 0); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad mode = %v", err)
	}
}

func TestTickleIdleHolderDispossessed(t *testing.T) {
	m, r := newMgr(Tickle, 10*time.Second)
	mustAcquire(t, m, sec1, "alice", Exclusive, 0)
	// Alice idle for 30s; Bob's request transfers the lock.
	res := mustAcquire(t, m, sec1, "bob", Exclusive, 30*time.Second)
	if !res.Granted {
		t.Fatalf("tickle of idle holder = %+v, want granted", res)
	}
	revoked := r.ofType(EvRevoked)
	if len(revoked) != 1 || revoked[0].Who != "alice" || revoked[0].Other != "bob" {
		t.Fatalf("revocations = %+v", revoked)
	}
	if got := holdersOf(m, sec1); len(got) != 1 || got[0] != "bob" {
		t.Fatalf("holders = %v", got)
	}
}

func TestTickleActiveHolderKeepsLock(t *testing.T) {
	m, r := newMgr(Tickle, 10*time.Second)
	// Alice took the lock 5s ago, within the 10s idle window.
	mustAcquire(t, m, sec1, "alice", Exclusive, 25*time.Second)
	res := mustAcquire(t, m, sec1, "bob", Exclusive, 30*time.Second)
	if !res.Queued {
		t.Fatalf("tickle of active holder = %+v, want queued", res)
	}
	tickled := r.ofType(EvTickled)
	if len(tickled) != 1 || tickled[0].Who != "alice" || tickled[0].Other != "bob" {
		t.Fatalf("tickles = %+v", tickled)
	}
	// Alice finishes; Bob gets the lock from the queue.
	m.Release(sec1, "alice", 40*time.Second)
	if got := holdersOf(m, sec1); len(got) != 1 || got[0] != "bob" {
		t.Fatalf("holders = %v", got)
	}
}

func TestSoftAlwaysGrantsWithWarnings(t *testing.T) {
	m, r := newMgr(Soft, 0)
	mustAcquire(t, m, sec1, "alice", Exclusive, 0)
	res := mustAcquire(t, m, sec1, "bob", Exclusive, 0)
	if !res.Granted || !res.Warned {
		t.Fatalf("soft conflicting acquire = %+v", res)
	}
	warns := r.ofType(EvConflictWarning)
	if len(warns) != 2 {
		t.Fatalf("warnings = %+v, want one to each party", warns)
	}
	if got := holdersOf(m, sec1); len(got) != 2 {
		t.Fatalf("holders = %v, soft locks coexist", got)
	}
	if m.Stats().Warnings != 1 {
		t.Errorf("warning pairs = %d", m.Stats().Warnings)
	}
}

func TestNotificationReadersNeverBlock(t *testing.T) {
	m, r := newMgr(Notification, 0)
	mustAcquire(t, m, sec1, "writer", Exclusive, 0)
	res := mustAcquire(t, m, sec1, "reader1", Shared, time.Second)
	if !res.Granted {
		t.Fatalf("reader over writer = %+v, want granted (notification locks)", res)
	}
	res = mustAcquire(t, m, sec1, "reader2", Shared, time.Second)
	if !res.Granted {
		t.Fatal("second reader should also proceed")
	}
	// Writer releases: registered readers hear about the change.
	m.Release(sec1, "writer", 2*time.Second)
	changed := r.ofType(EvChanged)
	if len(changed) != 2 {
		t.Fatalf("changed events = %+v", changed)
	}
	names := map[string]bool{}
	for _, e := range changed {
		names[e.Who] = true
		if e.Other != "writer" {
			t.Errorf("changed.Other = %q", e.Other)
		}
	}
	if !names["reader1"] || !names["reader2"] {
		t.Errorf("notified readers = %v", names)
	}
	if m.Stats().ChangeNotifs != 2 {
		t.Errorf("ChangeNotifs = %d", m.Stats().ChangeNotifs)
	}
}

func TestNotificationWritersQueue(t *testing.T) {
	m, _ := newMgr(Notification, 0)
	mustAcquire(t, m, sec1, "w1", Exclusive, 0)
	res := mustAcquire(t, m, sec1, "w2", Exclusive, 0)
	if !res.Queued {
		t.Fatal("second writer should queue even under notification locks")
	}
}

func TestQueueFIFO(t *testing.T) {
	m, r := newMgr(Pessimistic, 0)
	mustAcquire(t, m, sec1, "a", Exclusive, 0)
	mustAcquire(t, m, sec1, "b", Exclusive, 1)
	mustAcquire(t, m, sec1, "c", Exclusive, 2)
	m.Release(sec1, "a", 3)
	m.Release(sec1, "b", 4)
	m.Release(sec1, "c", 5)
	var order []string
	for _, e := range r.ofType(EvGranted) {
		order = append(order, e.Who)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v", order)
		}
	}
	if len(m.waiters) != 0 {
		t.Errorf("queue length = %d", len(m.waiters))
	}
}

func TestDrainGrantsMultipleShared(t *testing.T) {
	m, _ := newMgr(Pessimistic, 0)
	mustAcquire(t, m, sec1, "w", Exclusive, 0)
	mustAcquire(t, m, sec1, "r1", Shared, 0)
	mustAcquire(t, m, sec1, "r2", Shared, 0)
	m.Release(sec1, "w", 1)
	if got := holdersOf(m, sec1); len(got) != 2 {
		t.Fatalf("both readers should be granted, holders = %v", got)
	}
}

func TestPathAndEnumStrings(t *testing.T) {
	if par.String() != "doc/s1/p1" {
		t.Errorf("Path.String = %q", par.String())
	}
	if Pessimistic.String() != "pessimistic" || Tickle.String() != "tickle" ||
		Soft.String() != "soft" || Notification.String() != "notification" {
		t.Error("discipline names")
	}
	if Shared.String() != "shared" || Exclusive.String() != "exclusive" {
		t.Error("mode names")
	}
	if GrainDocument.Depth() != 1 || GrainWord.Depth() != 5 {
		t.Error("granularity depth")
	}
	if GrainParagraph.String() != "paragraph" {
		t.Error("granularity names")
	}
	if EvGranted.String() != "granted" || EvChanged.String() != "changed" {
		t.Error("event names")
	}
}

func BenchmarkAcquireReleaseFlat(b *testing.B) {
	m := NewManager(Pessimistic, Options{})
	p := Path{"doc", "s1", "p1", "w5"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i)
		if _, err := m.Acquire(p, "u", Exclusive, now); err != nil {
			b.Fatal(err)
		}
		if err := m.Release(p, "u", now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAcquireContendedHierarchy(b *testing.B) {
	m := NewManager(Soft, Options{})
	// Pre-populate many word-level holders, then acquire at document level,
	// exercising the subtree scan.
	for i := 0; i < 200; i++ {
		p := Path{"doc", "s1", "p1", "w" + string(rune('a'+i%26)), string(rune('0' + i%10))}
		m.Acquire(p, "holder", Shared, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Acquire(doc, "scanner", Exclusive, time.Duration(i))
		m.Release(doc, "scanner", time.Duration(i))
	}
}
