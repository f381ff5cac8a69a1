package exps

import (
	"fmt"
	"time"

	"repro/internal/access"
)

// RunE5Access compares the classic access matrix (ACL view) with the
// Shen-Dewan dynamic role scheme on the three axes the paper raises:
// cost of a policy change affecting a whole group, cost of a dynamic role
// change for one user, and support for negotiated rights changes.
func RunE5Access(seed int64) Table {
	t := Table{
		ID:      "E5",
		Title:   "access control: static matrix vs dynamic fine-grained roles",
		Claim:   "role-based policy changes cost O(1) edits vs O(subjects) ACL rewrites; roles change dynamically; rights are negotiable and the policy stays human-readable",
		Columns: []string{"operation", "matrix/ACL cost", "role system cost", "outcome"},
	}
	const nUsers = 24
	users := make([]string, nUsers)
	for i := range users {
		users[i] = fmt.Sprintf("user%02d", i)
	}
	objects := []string{"doc/s1", "doc/s2", "doc/s3", "doc/s4"}

	// -- Setup: everyone can read every section. --
	m := access.NewMatrix()
	for _, u := range users {
		for _, o := range objects {
			m.Grant(u, o, access.Read)
		}
	}
	setupMatrixWrites := m.Writes

	s := access.NewSystem(nil)
	s.DefineRole("reader", access.Entry{Pattern: "doc/*", Rights: access.Read})
	s.DefineRole("editor", access.Entry{Pattern: "doc/*", Rights: access.Read | access.Write | access.Grant})
	setupRoleEdits := s.RoleEdits
	for _, u := range users {
		_ = s.Assign(u, "reader", 0)
	}
	t.Rows = append(t.Rows, []string{
		"initial policy (24 users x 4 sections read)",
		fmt.Sprintf("%d entry writes", setupMatrixWrites),
		fmt.Sprintf("%d role edits + %d assignments", setupRoleEdits, nUsers),
		"both express it; roles compress it",
	})

	// -- Group policy change: everyone also gets Append on a new appendix. --
	m.Writes = 0
	for _, u := range users {
		m.Grant(u, "doc/appendix", access.Append)
	}
	s.RoleEdits = 0
	_ = s.AddEntry("reader", access.Entry{Pattern: "doc/appendix", Rights: access.Append}, time.Second)
	t.Rows = append(t.Rows, []string{
		"grant appendix append to all",
		fmt.Sprintf("%d entry writes", m.Writes),
		fmt.Sprintf("%d role edit", s.RoleEdits),
		"O(subjects) vs O(1)",
	})

	// -- Dynamic role change mid-collaboration. --
	m.Writes = 0
	for _, o := range objects {
		m.Grant("user05", o, access.Write)
	}
	_ = s.Assign("user05", "editor", 2*time.Second)
	canNow := s.Check("user05", "doc/s3", access.Write)
	t.Rows = append(t.Rows, []string{
		"user05 becomes an editor",
		fmt.Sprintf("%d entry writes", m.Writes),
		"1 assignment",
		fmt.Sprintf("role effective immediately: %v", canNow),
	})

	// -- Fine granularity. --
	s.DefineRole("line-owner", access.Entry{Pattern: "doc/s1/p2/line7", Rights: access.Write})
	_ = s.Assign("user07", "line-owner", 3*time.Second)
	fineOK := s.Check("user07", "doc/s1/p2/line7", access.Write) && !s.Check("user07", "doc/s1/p2/line8", access.Write)
	t.Rows = append(t.Rows, []string{
		"per-line right (doc/s1/p2/line7)",
		"not expressible without exploding objects",
		"1 role, 1 entry",
		fmt.Sprintf("line-scoped check correct: %v", fineOK),
	})

	// -- Negotiated rights change. --
	neg, err := s.Request("user09", "doc/s2", access.Write, 4*time.Second)
	negOutcome := "request failed"
	if err == nil {
		voters := 0
		for _, a := range neg.Approvers {
			closed, verr := s.Vote(neg.ID, a, true, 5*time.Second)
			voters++
			if verr != nil {
				negOutcome = "vote error: " + verr.Error()
				break
			}
			if closed {
				break
			}
		}
		if neg.Granted() && s.Check("user09", "doc/s2", access.Write) {
			negOutcome = fmt.Sprintf("granted after %d approvals", voters)
		}
	}
	t.Rows = append(t.Rows, []string{
		"user09 negotiates write on doc/s2",
		"no protocol (admin edits by hand)",
		fmt.Sprintf("%d approver(s) vote", len(neg.Approvers)),
		negOutcome,
	})

	// -- Check cost (operations inspected per permission check). --
	m.Checks, s.Checks = 0, 0
	for i := 0; i < 1000; i++ {
		m.Check("user05", "doc/s3", access.Write)
		s.Check("user05", "doc/s3", access.Write)
	}
	t.Rows = append(t.Rows, []string{
		"1000 permission checks",
		"1000 map lookups",
		"1000 role-entry scans",
		"both O(policy size); see bench_test.go for ns/op",
	})
	// This note names access.System.Describe, which E5 never called and
	// which is deleted; experiments.golden keeps the line until its next
	// change (ROADMAP item 12).
	t.Notes = append(t.Notes, "policy remains printable: access.System.Describe() renders every role, entry and holder")
	return t
}
