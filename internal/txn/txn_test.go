package txn

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("x"); ok {
		t.Fatal("empty store should miss")
	}
	s.Set("x", "1")
	if v, ok := s.Get("x"); !ok || v != "1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if s.Version("x") != 1 {
		t.Errorf("version = %d", s.Version("x"))
	}
	s.Set("x", "2")
	if s.Version("x") != 2 {
		t.Errorf("version after rewrite = %d", s.Version("x"))
	}
	s.Delete("x")
	if _, ok := s.Get("x"); ok {
		t.Fatal("deleted key present")
	}
	if s.Version("x") != 3 {
		t.Errorf("version after delete = %d", s.Version("x"))
	}
	s.Set("a", "1")
	s.Set("b", "2")
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Errorf("Keys = %v", keys)
	}
	snap := s.Snapshot()
	s.Set("a", "changed")
	if snap["a"] != "1" {
		t.Error("snapshot not independent")
	}
}

func TestKeyPath(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"doc/s1/p2", "doc s1 p2"},
		{"plain", "plain"},
		{"a//b", "a b"},
		{"/lead", "lead"},
	}
	for _, tt := range tests {
		got := strings.Join(keyPath(tt.in), " ")
		if got != tt.want {
			t.Errorf("keyPath(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestSerialCommit(t *testing.T) {
	s := NewStore()
	m := NewManager(s, 0)
	tx := m.Begin("alice", 0)
	if err := tx.Write("doc/s1", "hello", 0); err != nil {
		t.Fatal(err)
	}
	v, err := tx.Read("doc/s1", 0)
	if err != nil || v != "hello" {
		t.Fatalf("read own write = %q, %v", v, err)
	}
	if err := tx.Commit(time.Second); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("doc/s1"); v != "hello" {
		t.Errorf("store after commit = %q", v)
	}
	if tx.State() != TxnCommitted {
		t.Errorf("state = %v", tx.State())
	}
	if err := tx.Write("doc/s1", "late", time.Second); !errors.Is(err, ErrTxnDone) {
		t.Errorf("write after commit = %v", err)
	}
}

func TestSerialAbortUndo(t *testing.T) {
	s := NewStore()
	s.Set("k", "orig")
	m := NewManager(s, 0)
	tx := m.Begin("alice", 0)
	tx.Write("k", "dirty1", 0)
	tx.Write("k", "dirty2", 0)
	tx.Write("fresh", "new", 0)
	if err := tx.Abort(0); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("k"); v != "orig" {
		t.Errorf("k after abort = %q, want orig", v)
	}
	if _, ok := s.Get("fresh"); ok {
		t.Error("fresh key should be gone after abort")
	}
}

func TestSerialWallsBlockAndResume(t *testing.T) {
	s := NewStore()
	m := NewManager(s, 0)
	t1 := m.Begin("alice", 0)
	t2 := m.Begin("bob", 0)
	if err := t1.Write("doc/s1", "a-version", 0); err != nil {
		t.Fatal(err)
	}
	// Bob cannot even read while Alice writes: the Figure 2a wall.
	var resumedAt time.Duration
	t2.OnUnblock = func(now time.Duration) { resumedAt = now }
	_, err := t2.Read("doc/s1", time.Second)
	if !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("read during write = %v, want ErrWouldBlock", err)
	}
	if t2.State() != TxnBlocked {
		t.Fatalf("t2 state = %v", t2.State())
	}
	if err := t1.Commit(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if t2.State() != TxnActive {
		t.Fatalf("t2 should resume after t1 commit, state = %v", t2.State())
	}
	if resumedAt != 3*time.Second {
		t.Errorf("resumedAt = %v", resumedAt)
	}
	st := m.Stats()
	if st.Blocks != 1 || st.TotalBlockTime != 2*time.Second {
		t.Errorf("stats = %+v", st)
	}
	// Bob can now read the committed value.
	v, err := t2.Read("doc/s1", 3*time.Second)
	if err != nil || v != "a-version" {
		t.Errorf("post-wall read = %q, %v", v, err)
	}
}

func TestSerialSharedReadersCoexist(t *testing.T) {
	s := NewStore()
	s.Set("k", "v")
	m := NewManager(s, 0)
	t1 := m.Begin("a", 0)
	t2 := m.Begin("b", 0)
	if _, err := t1.Read("k", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Read("k", 0); err != nil {
		t.Fatal(err)
	}
}

func TestSerialUpgrade(t *testing.T) {
	s := NewStore()
	s.Set("k", "v")
	m := NewManager(s, 0)
	tx := m.Begin("a", 0)
	if _, err := tx.Read("k", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("k", "v2", 0); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	tx.Commit(0)
	if v, _ := s.Get("k"); v != "v2" {
		t.Errorf("after upgrade commit = %q", v)
	}
}

func TestDeadlockTimeoutAbort(t *testing.T) {
	s := NewStore()
	s.Set("x", "0")
	s.Set("y", "0")
	m := NewManager(s, 5*time.Second)
	t1 := m.Begin("a", 0)
	t2 := m.Begin("b", 0)
	t1.Write("x", "1", 0)
	t2.Write("y", "1", 0)
	// Cross-block: classic deadlock.
	if err := t1.Write("y", "1", time.Second); !errors.Is(err, ErrWouldBlock) {
		t.Fatal("t1 should block on y")
	}
	if err := t2.Write("x", "1", time.Second); !errors.Is(err, ErrWouldBlock) {
		t.Fatal("t2 should block on x")
	}
	aborted := m.CheckTimeouts(3 * time.Second)
	if len(aborted) != 0 {
		t.Fatalf("aborted too early: %d", len(aborted))
	}
	aborted = m.CheckTimeouts(10 * time.Second)
	if len(aborted) != 2 {
		t.Fatalf("aborted = %d, want both deadlocked txns", len(aborted))
	}
	if m.Stats().TimeoutAborts != 2 {
		t.Errorf("TimeoutAborts = %d", m.Stats().TimeoutAborts)
	}
	if v, _ := s.Get("x"); v != "0" {
		t.Errorf("x = %q after deadlock abort, want 0", v)
	}
}

func TestBlockedAbortCancelsWaiter(t *testing.T) {
	s := NewStore()
	m := NewManager(s, 0)
	t1 := m.Begin("a", 0)
	t2 := m.Begin("b", 0)
	t3 := m.Begin("c", 0)
	t1.Write("k", "1", 0)
	if err := t2.Write("k", "2", 0); !errors.Is(err, ErrWouldBlock) {
		t.Fatal("t2 should block")
	}
	if err := t3.Write("k", "3", 0); !errors.Is(err, ErrWouldBlock) {
		t.Fatal("t3 should block")
	}
	t2.Abort(0) // cancels its queued request
	t1.Commit(0)
	// t3 (not t2) should now hold the lock and have applied its write.
	if v, _ := s.Get("k"); v != "3" {
		t.Errorf("k = %q, want 3 (t3's write after t2 cancelled)", v)
	}
}

// --- transaction groups ---

func sectionOf(key string) string {
	// key convention: "<owner>/<rest>"
	if i := strings.IndexByte(key, '/'); i > 0 {
		return key[:i]
	}
	return key
}

func TestGroupImmediateVisibility(t *testing.T) {
	parent := NewStore()
	parent.Set("alice/draft", "v0")
	var events []GroupEvent
	g := NewGroup("paper", parent, []Rule{RuleReadAll(false), RuleWriteNotify()}, func(e GroupEvent) {
		events = append(events, e)
	})
	g.Join("alice")
	g.Join("bob")
	if err := g.Write("alice", "alice/draft", "v1", 0); err != nil {
		t.Fatal(err)
	}
	// Bob sees Alice's uncommitted write immediately: no walls.
	v, err := g.Read("bob", "alice/draft", time.Millisecond)
	if err != nil || v != "v1" {
		t.Fatalf("bob read = %q, %v", v, err)
	}
	// And Bob was notified of the write (information flow).
	if len(events) != 1 || events[0].To != "bob" || events[0].User != "alice" {
		t.Fatalf("events = %+v", events)
	}
	// Parent untouched until commit.
	if v, _ := parent.Get("alice/draft"); v != "v0" {
		t.Errorf("parent before commit = %q", v)
	}
	n := g.Commit(time.Second)
	if n != 1 {
		t.Errorf("commit wrote %d keys", n)
	}
	if v, _ := parent.Get("alice/draft"); v != "v1" {
		t.Errorf("parent after commit = %q", v)
	}
}

func TestGroupOwnSectionPolicy(t *testing.T) {
	parent := NewStore()
	g := NewGroup("paper", parent, []Rule{RuleReadAll(false), RuleOwnSection(sectionOf)}, nil)
	g.Join("alice")
	g.Join("bob")
	if err := g.Write("alice", "alice/s1", "mine", 0); err != nil {
		t.Fatalf("own-section write: %v", err)
	}
	err := g.Write("bob", "alice/s1", "intrusion", 0)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("cross-section write = %v, want denied", err)
	}
	st := g.Stats()
	if st.Denied != 1 || st.Allowed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGroupPolicyTailoring(t *testing.T) {
	parent := NewStore()
	g := NewGroup("doc", parent, []Rule{RuleReadAll(false), RuleOwnSection(sectionOf)}, nil)
	g.Join("alice")
	g.Join("bob")
	if err := g.Write("bob", "alice/s1", "x", 0); !errors.Is(err, ErrDenied) {
		t.Fatal("should deny before tailoring")
	}
	// Mid-collaboration the group relaxes to brainstorm mode.
	g.SetRules([]Rule{RuleReadAll(false), RuleWriteNotify()})
	if err := g.Write("bob", "alice/s1", "x", 0); err != nil {
		t.Fatalf("after tailoring: %v", err)
	}
	// And then freezes for review.
	g.SetRules([]Rule{RuleReadAll(false), RuleDenyWrites()})
	if err := g.Write("alice", "alice/s1", "y", 0); !errors.Is(err, ErrDenied) {
		t.Fatal("review phase should deny writes")
	}
	if _, err := g.Read("bob", "alice/s1", 0); err != nil {
		t.Fatalf("review phase read: %v", err)
	}
}

func TestGroupMembership(t *testing.T) {
	g := NewGroup("g", NewStore(), []Rule{RuleReadAll(false)}, nil)
	if _, err := g.Read("stranger", "k", 0); !errors.Is(err, ErrNotMember) {
		t.Errorf("stranger read = %v", err)
	}
	g.Join("a")
	g.Join("b")
	if got := g.Members(); len(got) != 2 || got[0] != "a" {
		t.Errorf("Members = %v", got)
	}
	g.Leave("a")
	if got := g.Members(); len(got) != 1 || got[0] != "b" {
		t.Errorf("Members after leave = %v", got)
	}
}

func TestGroupDefaultDeny(t *testing.T) {
	g := NewGroup("g", NewStore(), nil, nil)
	g.Join("a")
	if err := g.Write("a", "k", "v", 0); !errors.Is(err, ErrDenied) {
		t.Errorf("no rules should default-deny, got %v", err)
	}
}

func TestStateStrings(t *testing.T) {
	if TxnActive.String() != "active" || TxnBlocked.String() != "blocked" ||
		TxnCommitted.String() != "committed" || TxnAborted.String() != "aborted" {
		t.Error("TxnState names")
	}
	if AccessRead.String() != "read" || AccessWrite.String() != "write" {
		t.Error("AccessKind names")
	}
	if Allow.String() != "allow" || AllowNotify.String() != "allow+notify" || Deny.String() != "deny" || Abstain.String() != "abstain" {
		t.Error("Decision names")
	}
}

func BenchmarkSerialTxnCommit(b *testing.B) {
	s := NewStore()
	m := NewManager(s, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := m.Begin("u", 0)
		tx.Write("doc/s1/p1", "x", 0)
		tx.Commit(0)
	}
}

func BenchmarkGroupWrite(b *testing.B) {
	g := NewGroup("g", NewStore(), []Rule{RuleWriteNotify()}, func(GroupEvent) {})
	g.Join("a")
	g.Join("b")
	g.Join("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Write("a", "k", "v", 0)
	}
}

func TestSubgroupHierarchy(t *testing.T) {
	root := NewStore()
	root.Set("book/ch1", "draft-0")
	book := NewGroup("book", root, []Rule{RuleReadAll(false), RuleWriteNotify()}, nil)
	book.Join("editor")
	chapter := book.Subgroup("ch1-team", []Rule{RuleReadAll(false), RuleWriteNotify()}, nil)
	chapter.Join("ann")
	chapter.Join("ben")

	// The chapter team cooperates inside its own bubble.
	if err := chapter.Write("ann", "book/ch1", "draft-1", 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := chapter.Read("ben", "book/ch1", 0); v != "draft-1" {
		t.Fatalf("ben sees %q", v)
	}
	// The book group does not see it yet...
	if v, err := book.Read("editor", "book/ch1", 0); err != nil || v != "draft-0" {
		t.Fatalf("editor sees %q, %v", v, err)
	}
	// ...until the subgroup commits into the book group's store.
	chapter.Commit(1)
	if v, _ := book.Read("editor", "book/ch1", 1); v != "draft-1" {
		t.Fatal("subgroup commit should surface in the parent group")
	}
	// And the root store only changes when the book group commits.
	if v, _ := root.Get("book/ch1"); v != "draft-0" {
		t.Fatalf("root changed early: %q", v)
	}
	book.Commit(2)
	if v, _ := root.Get("book/ch1"); v != "draft-1" {
		t.Fatalf("root after book commit: %q", v)
	}
}
