// Package access implements the two access-control worlds of the paper's
// security discussion (§4.2.1):
//
//   - The classic Access Matrix with its ACL (per-object column) and
//     capability (per-subject row) views — the baseline the CSCW community
//     criticises as static and identity-centred.
//   - A collaborative scheme in the style of Shen & Dewan (CSCW'92):
//     rights attach to *roles* rather than individuals; users change roles
//     dynamically during a collaboration; rights apply at fine granularity
//     (hierarchical object paths down to individual lines); negative rights
//     allow exceptions; rights changes can be *negotiated* between the
//     parties involved; and the whole policy prints in a human-readable
//     form, the paper's visibility requirement.
//
// Experiment E5 compares the cost of policy churn (one role edit versus
// per-subject ACL rewrites) and permission-check latency between the two.
package access

import (
	"errors"
	"fmt"
	"strings"
)

// Right is a bitmask of access rights.
type Right uint8

// The rights vocabulary. Grant is the meta-right to approve rights
// negotiations on an object.
const (
	Read Right = 1 << iota
	Write
	Append
	Lock
	Grant
)

// Has reports whether r includes all rights in want.
func (r Right) Has(want Right) bool { return r&want == want }

// String renders the rights compactly, e.g. "rw-l-".
func (r Right) String() string {
	var b strings.Builder
	for _, p := range []struct {
		bit Right
		ch  byte
	}{{Read, 'r'}, {Write, 'w'}, {Append, 'a'}, {Lock, 'l'}, {Grant, 'g'}} {
		if r.Has(p.bit) {
			b.WriteByte(p.ch)
		} else {
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Errors returned by the package.
var (
	ErrUnknownRole = errors.New("access: unknown role")
	ErrUnknownNeg  = errors.New("access: unknown negotiation")
	ErrNotApprover = errors.New("access: caller is not an approver")
	ErrNegClosed   = errors.New("access: negotiation already closed")
)

// Matrix is the classic access matrix baseline. Cost accounting counts
// entry writes so experiments can compare policy-churn costs fairly.
type Matrix struct {
	rows   map[string]map[string]Right // subject -> object -> rights
	Writes int                         // entries written (churn cost)
	Checks int
}

// NewMatrix creates an empty matrix.
func NewMatrix() *Matrix {
	return &Matrix{rows: make(map[string]map[string]Right)}
}

// Grant adds rights for subject on object.
func (m *Matrix) Grant(subject, object string, r Right) {
	row, ok := m.rows[subject]
	if !ok {
		row = make(map[string]Right)
		m.rows[subject] = row
	}
	row[object] |= r
	m.Writes++
}

// Check reports whether subject holds all rights r on object. The matrix is
// identity-exact: no hierarchy, no wildcards — precisely the baseline's
// limitation.
func (m *Matrix) Check(subject, object string, r Right) bool {
	m.Checks++
	return m.rows[subject][object].Has(r)
}

// Entry is one fine-grained policy clause in a role: a path pattern plus
// rights, optionally negative. Patterns are object paths; a trailing "/*"
// matches the whole subtree, a bare "*" matches everything.
type Entry struct {
	Pattern string
	Rights  Right
	Negate  bool
}

// Matches reports whether the pattern covers the object, and the pattern's
// specificity (longer is more specific; -1 means no match).
func (e Entry) Matches(object string) (bool, int) {
	switch {
	case e.Pattern == "*":
		return true, 0
	case strings.HasSuffix(e.Pattern, "/*"):
		prefix := strings.TrimSuffix(e.Pattern, "/*")
		if object == prefix || strings.HasPrefix(object, prefix+"/") {
			return true, len(prefix)
		}
	case e.Pattern == object:
		return true, len(e.Pattern) + 1 // exact beats subtree of equal length
	}
	return false, -1
}

// String renders the entry.
func (e Entry) String() string {
	sign := "allow"
	if e.Negate {
		sign = "deny "
	}
	return fmt.Sprintf("%s %s on %s", sign, e.Rights, e.Pattern)
}
