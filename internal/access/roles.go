package access

import (
	"fmt"
	"sort"
	"time"
)

// RoleEvent is a notification of a dynamic policy change.
type RoleEvent struct {
	Kind string // "assign", "drop", "role-edit", "negotiated-grant"
	User string
	Role string
	At   time.Duration
}

// System is the collaborative access-control system: named roles holding
// fine-grained entries, dynamic user-role assignment, and negotiated rights
// changes.
type System struct {
	roles  map[string]*role
	users  map[string]map[string]bool // user -> set of role names
	negs   map[uint64]*Negotiation
	nextID uint64
	emit   func(RoleEvent)

	// Cost accounting for E5.
	Checks    int
	RoleEdits int
}

type role struct {
	name    string
	entries []Entry
}

// NewSystem creates an empty role system. emit may be nil.
func NewSystem(emit func(RoleEvent)) *System {
	return &System{
		roles: make(map[string]*role),
		users: make(map[string]map[string]bool),
		negs:  make(map[uint64]*Negotiation),
		emit:  emit,
	}
}

func (s *System) event(e RoleEvent) {
	if s.emit != nil {
		s.emit(e)
	}
}

// DefineRole creates or replaces a role with the given entries.
func (s *System) DefineRole(name string, entries ...Entry) {
	s.roles[name] = &role{name: name, entries: append([]Entry(nil), entries...)}
	s.RoleEdits++
	s.event(RoleEvent{Kind: "role-edit", Role: name})
}

// AddEntry appends an entry to an existing role; the change is visible to
// every user in the role immediately — one edit, regardless of how many
// users hold the role (contrast the ACL baseline).
func (s *System) AddEntry(roleName string, e Entry, at time.Duration) error {
	r, ok := s.roles[roleName]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRole, roleName)
	}
	r.entries = append(r.entries, e)
	s.RoleEdits++
	s.event(RoleEvent{Kind: "role-edit", Role: roleName, At: at})
	return nil
}

// Assign puts user into roleName, effective immediately (dynamic roles).
func (s *System) Assign(user, roleName string, at time.Duration) error {
	if _, ok := s.roles[roleName]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRole, roleName)
	}
	set, ok := s.users[user]
	if !ok {
		set = make(map[string]bool)
		s.users[user] = set
	}
	set[roleName] = true
	s.event(RoleEvent{Kind: "assign", User: user, Role: roleName, At: at})
	return nil
}

// Check decides whether user holds right r on object. Across all the user's
// roles the most specific matching entry wins; at equal specificity an
// explicit deny beats an allow; no match means deny.
func (s *System) Check(user, object string, r Right) bool {
	s.Checks++
	bestSpec := -1
	bestAllow := false
	for roleName := range s.users[user] {
		ro, ok := s.roles[roleName]
		if !ok {
			continue
		}
		for _, e := range ro.entries {
			if !e.Rights.Has(r) {
				continue
			}
			match, spec := e.Matches(object)
			if !match {
				continue
			}
			switch {
			case spec > bestSpec:
				bestSpec = spec
				bestAllow = !e.Negate
			case spec == bestSpec && e.Negate:
				bestAllow = false // deny wins ties
			}
		}
	}
	return bestAllow
}

// Negotiation is a pending rights-change proposal: the paper anticipates
// that access changes "will be made as a result of negotiation between
// parties involved". Approvers are the users holding Grant on the object.
type Negotiation struct {
	ID        uint64
	Requester string
	Object    string
	Rights    Right
	Approvers []string
	votes     map[string]bool
	closed    bool
	granted   bool
}

// Granted reports whether the negotiation concluded in a grant.
func (n *Negotiation) Granted() bool { return n.granted }

// Request opens a negotiation for user to gain rights on object. The
// approver set is every user that currently holds Grant on the object; an
// empty approver set fails fast.
func (s *System) Request(user, object string, r Right, at time.Duration) (*Negotiation, error) {
	var approvers []string
	for u := range s.users {
		if u != user && s.Check(u, object, Grant) {
			approvers = append(approvers, u)
		}
	}
	sort.Strings(approvers)
	if len(approvers) == 0 {
		return nil, fmt.Errorf("access: no one holds grant rights on %s", object)
	}
	s.nextID++
	n := &Negotiation{
		ID: s.nextID, Requester: user, Object: object, Rights: r,
		Approvers: approvers, votes: make(map[string]bool),
	}
	s.negs[n.ID] = n
	return n, nil
}

// Vote records an approver's verdict. A unanimous yes grants the rights by
// adding an entry to the requester's personal role (created on demand); any
// no closes the negotiation without a grant. Vote reports whether the
// negotiation is now closed.
func (s *System) Vote(negID uint64, approver string, yes bool, at time.Duration) (bool, error) {
	n, ok := s.negs[negID]
	if !ok {
		return false, fmt.Errorf("%w: %d", ErrUnknownNeg, negID)
	}
	if n.closed {
		return true, ErrNegClosed
	}
	isApprover := false
	for _, a := range n.Approvers {
		if a == approver {
			isApprover = true
		}
	}
	if !isApprover {
		return false, fmt.Errorf("%w: %s", ErrNotApprover, approver)
	}
	if !yes {
		n.closed = true
		return true, nil
	}
	n.votes[approver] = true
	if len(n.votes) < len(n.Approvers) {
		return false, nil
	}
	n.closed = true
	n.granted = true
	personal := "user:" + n.Requester
	if _, ok := s.roles[personal]; !ok {
		s.DefineRole(personal)
		if err := s.Assign(n.Requester, personal, at); err != nil {
			return true, err
		}
	}
	if err := s.AddEntry(personal, Entry{Pattern: n.Object, Rights: n.Rights}, at); err != nil {
		return true, err
	}
	s.event(RoleEvent{Kind: "negotiated-grant", User: n.Requester, Role: personal, At: at})
	return true, nil
}
