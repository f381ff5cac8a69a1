package access

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestRightString(t *testing.T) {
	if got := (Read | Write).String(); got != "rw---" {
		t.Errorf("String = %q", got)
	}
	if got := (Read | Write | Append | Lock | Grant).String(); got != "rwalg" {
		t.Errorf("String = %q", got)
	}
	if !(Read | Write).Has(Read) {
		t.Error("Has(Read) failed")
	}
	if (Read).Has(Read | Write) {
		t.Error("Has should require all bits")
	}
}

func TestMatrixGrantCheck(t *testing.T) {
	m := NewMatrix()
	if m.Check("alice", "doc", Read) {
		t.Error("empty matrix should deny")
	}
	m.Grant("alice", "doc", Read|Write)
	if !m.Check("alice", "doc", Read) || !m.Check("alice", "doc", Write) {
		t.Error("granted rights missing")
	}
	if m.Check("alice", "doc", Lock) {
		t.Error("ungranted right allowed")
	}
}

func TestMatrixNoHierarchy(t *testing.T) {
	m := NewMatrix()
	m.Grant("alice", "doc", Read)
	if m.Check("alice", "doc/s1", Read) {
		t.Error("matrix baseline must be identity-exact (no hierarchy)")
	}
}

func TestEntryMatching(t *testing.T) {
	tests := []struct {
		pattern, object string
		want            bool
	}{
		{"*", "anything", true},
		{"doc/*", "doc/s1/p2", true},
		{"doc/*", "doc", true},
		{"doc/*", "docs", false},
		{"doc/s1", "doc/s1", true},
		{"doc/s1", "doc/s1/p1", false},
	}
	for _, tt := range tests {
		e := Entry{Pattern: tt.pattern, Rights: Read}
		got, _ := e.Matches(tt.object)
		if got != tt.want {
			t.Errorf("Matches(%q, %q) = %v", tt.pattern, tt.object, got)
		}
	}
	// Exact beats subtree specificity.
	_, specExact := Entry{Pattern: "doc/s1"}.Matches("doc/s1")
	_, specTree := Entry{Pattern: "doc/s1/*"}.Matches("doc/s1")
	if specExact <= specTree {
		t.Errorf("exact spec %d should beat subtree spec %d", specExact, specTree)
	}
	if got := (Entry{Pattern: "doc/*", Rights: Write, Negate: true}).String(); got != "deny  -w--- on doc/*" {
		t.Errorf("String = %q", got)
	}
}

func newRoleSystem() *System {
	s := NewSystem(nil)
	s.DefineRole("author",
		Entry{Pattern: "doc/*", Rights: Read},
		Entry{Pattern: "doc/s1/*", Rights: Write | Lock},
	)
	s.DefineRole("reviewer",
		Entry{Pattern: "doc/*", Rights: Read},
		Entry{Pattern: "doc/*", Rights: Append}, // annotations only
	)
	s.DefineRole("editor",
		Entry{Pattern: "doc/*", Rights: Read | Write | Lock | Grant},
		Entry{Pattern: "doc/frontmatter", Rights: Write, Negate: true},
	)
	return s
}

func TestRoleCheckBasics(t *testing.T) {
	s := newRoleSystem()
	s.Assign("alice", "author", 0)
	if !s.Check("alice", "doc/s1/p3", Write) {
		t.Error("author should write own section")
	}
	if s.Check("alice", "doc/s2/p1", Write) {
		t.Error("author must not write other sections")
	}
	if !s.Check("alice", "doc/s2/p1", Read) {
		t.Error("author should read everywhere")
	}
	if s.Check("bob", "doc/s1/p1", Read) {
		t.Error("unassigned user should be denied")
	}
}

func TestRoleNegativeRights(t *testing.T) {
	s := newRoleSystem()
	s.Assign("ed", "editor", 0)
	if !s.Check("ed", "doc/body", Write) {
		t.Error("editor writes body")
	}
	if s.Check("ed", "doc/frontmatter", Write) {
		t.Error("negative entry should deny frontmatter (more specific)")
	}
	if !s.Check("ed", "doc/frontmatter", Read) {
		t.Error("deny is per-right: read stays allowed")
	}
}

func TestDynamicRoleChange(t *testing.T) {
	s := newRoleSystem()
	s.Assign("bob", "reviewer", 0)
	if s.Check("bob", "doc/s1/p1", Write) {
		t.Error("reviewer cannot write")
	}
	// Bob becomes an author mid-session — one assignment, instant effect.
	s.Assign("bob", "author", 10)
	if !s.Check("bob", "doc/s1/p1", Write) {
		t.Error("role change should take effect immediately")
	}
}

func TestRoleEditAffectsAllHolders(t *testing.T) {
	s := newRoleSystem()
	for _, u := range []string{"u1", "u2", "u3"} {
		s.Assign(u, "reviewer", 0)
	}
	if s.Check("u2", "doc/appendix", Lock) {
		t.Error("no lock right yet")
	}
	edits := s.RoleEdits
	if err := s.AddEntry("reviewer", Entry{Pattern: "doc/appendix", Rights: Lock}, 5); err != nil {
		t.Fatal(err)
	}
	if s.RoleEdits != edits+1 {
		t.Errorf("one edit expected, got %d", s.RoleEdits-edits)
	}
	for _, u := range []string{"u1", "u2", "u3"} {
		if !s.Check(u, "doc/appendix", Lock) {
			t.Errorf("%s should gain lock from single role edit", u)
		}
	}
	if err := s.AddEntry("ghost", Entry{}, 0); !errors.Is(err, ErrUnknownRole) {
		t.Errorf("AddEntry ghost = %v", err)
	}
	if err := s.Assign("u1", "ghost", 0); !errors.Is(err, ErrUnknownRole) {
		t.Errorf("Assign ghost = %v", err)
	}
}

func TestFineGranularity(t *testing.T) {
	s := NewSystem(nil)
	// Per-line rights, the paper's finest example.
	s.DefineRole("line-owner",
		Entry{Pattern: "doc/s1/p1/line3", Rights: Write},
	)
	s.Assign("alice", "line-owner", 0)
	if !s.Check("alice", "doc/s1/p1/line3", Write) {
		t.Error("line-level right missing")
	}
	if s.Check("alice", "doc/s1/p1/line4", Write) {
		t.Error("adjacent line should be denied")
	}
}

func TestNegotiation(t *testing.T) {
	s := newRoleSystem()
	s.Assign("ed", "editor", 0)    // ed holds Grant on doc/*
	s.Assign("eve", "editor", 0)   // second approver
	s.Assign("bob", "reviewer", 0) // bob wants write access to s2
	neg, err := s.Request("bob", "doc/s2", Write, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(neg.Approvers) != 2 {
		t.Fatalf("approvers = %v", neg.Approvers)
	}
	if _, err := s.Vote(neg.ID, "bob", true, 2); !errors.Is(err, ErrNotApprover) {
		t.Errorf("self-vote = %v", err)
	}
	closed, err := s.Vote(neg.ID, "ed", true, 2)
	if err != nil || closed {
		t.Fatalf("first vote closed=%v err=%v", closed, err)
	}
	if s.Check("bob", "doc/s2", Write) {
		t.Error("grant before negotiation completes")
	}
	closed, err = s.Vote(neg.ID, "eve", true, 3)
	if err != nil || !closed {
		t.Fatalf("second vote closed=%v err=%v", closed, err)
	}
	if !neg.Granted() {
		t.Error("negotiation should have granted")
	}
	if !s.Check("bob", "doc/s2", Write) {
		t.Error("negotiated right missing")
	}
	// Voting again on a closed negotiation errors.
	if _, err := s.Vote(neg.ID, "ed", true, 4); !errors.Is(err, ErrNegClosed) {
		t.Errorf("vote on closed = %v", err)
	}
}

func TestNegotiationRejection(t *testing.T) {
	s := newRoleSystem()
	s.Assign("ed", "editor", 0)
	s.Assign("bob", "reviewer", 0)
	neg, err := s.Request("bob", "doc/s2", Write, 1)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := s.Vote(neg.ID, "ed", false, 2)
	if err != nil || !closed {
		t.Fatal("no-vote should close")
	}
	if neg.Granted() || s.Check("bob", "doc/s2", Write) {
		t.Error("rejected negotiation must not grant")
	}
}

func TestNegotiationNoApprovers(t *testing.T) {
	s := NewSystem(nil)
	s.DefineRole("r", Entry{Pattern: "*", Rights: Read})
	s.Assign("bob", "r", 0)
	if _, err := s.Request("bob", "doc", Write, 0); err == nil {
		t.Error("no grant-holders should fail the request")
	}
	if _, err := s.Vote(99, "x", true, 0); !errors.Is(err, ErrUnknownNeg) {
		t.Errorf("unknown negotiation = %v", err)
	}
}

func TestQuickMatrixGrantCheckConsistent(t *testing.T) {
	// Property: after Grant(s,o,r), Check(s,o,r') holds iff r' ⊆ accumulated rights.
	f := func(grants []uint8, probe uint8) bool {
		m := NewMatrix()
		var acc Right
		for _, g := range grants {
			r := Right(g) & (Read | Write | Append | Lock | Grant)
			m.Grant("s", "o", r)
			acc |= r
		}
		p := Right(probe) & (Read | Write | Append | Lock | Grant)
		return m.Check("s", "o", p) == acc.Has(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMatrixCheck(b *testing.B) {
	m := NewMatrix()
	m.Grant("alice", "doc/s1/p1", Read|Write)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Check("alice", "doc/s1/p1", Write)
	}
}

func BenchmarkRoleCheck(b *testing.B) {
	s := newRoleSystem()
	s.Assign("alice", "author", 0)
	s.Assign("alice", "reviewer", 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Check("alice", "doc/s1/p7", Write)
	}
}
