package txn

import (
	"fmt"
	"sort"
	"time"
)

// AccessKind is the kind of operation a group member attempts.
type AccessKind int

const (
	// AccessRead reads a key.
	AccessRead AccessKind = iota + 1
	// AccessWrite writes a key.
	AccessWrite
)

// String returns the access kind name.
func (k AccessKind) String() string {
	if k == AccessRead {
		return "read"
	}
	return "write"
}

// AccessRequest describes one attempted operation inside a transaction
// group, submitted to the group's access rules.
type AccessRequest struct {
	User  string
	Key   string
	Kind  AccessKind
	Value string
	At    time.Duration
}

// Decision is a rule verdict.
type Decision int

const (
	// Allow permits the operation silently.
	Allow Decision = iota + 1
	// AllowNotify permits the operation and notifies the other members —
	// the "information flow between users" of Figure 2b.
	AllowNotify
	// Deny rejects the operation.
	Deny
	// Abstain defers to the next rule.
	Abstain
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Allow:
		return "allow"
	case AllowNotify:
		return "allow+notify"
	case Deny:
		return "deny"
	case Abstain:
		return "abstain"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Rule is one semantic access rule (Skarra & Zdonik): the *policy* of
// cooperation, tailorable per application by composing rules. Rules are
// evaluated in order; the first non-Abstain verdict wins, and a group whose
// rules all abstain denies by default.
type Rule struct {
	Name  string
	Judge func(req AccessRequest, g *Group) Decision
}

// GroupEvent is a notification flowing between group members.
type GroupEvent struct {
	Group string
	User  string // the actor
	To    string // the member being notified
	Key   string
	Kind  AccessKind
	Value string
	At    time.Duration
}

// GroupStats aggregates transaction-group activity.
type GroupStats struct {
	Ops           int
	Allowed       int
	Denied        int
	Notifications int
}

// Group is a transaction group: a set of cooperating members sharing an
// intermediate store governed by semantic access rules instead of
// serialisability. Operations apply immediately (no blocking, no walls);
// Commit merges the group store into the parent.
type Group struct {
	name    string
	parent  *Store
	local   *Store
	members map[string]bool
	rules   []Rule
	notify  func(GroupEvent)
	stats   GroupStats
}

// NewGroup creates a transaction group over parent. The group store starts
// as a snapshot of the parent (members see a consistent base). notify may
// be nil.
func NewGroup(name string, parent *Store, rules []Rule, notify func(GroupEvent)) *Group {
	local := NewStore()
	for k, v := range parent.Snapshot() {
		local.Set(k, v)
	}
	return &Group{
		name:    name,
		parent:  parent,
		local:   local,
		members: make(map[string]bool),
		rules:   rules,
		notify:  notify,
	}
}

// Stats returns accumulated statistics.
func (g *Group) Stats() GroupStats { return g.stats }

// Join adds a member.
func (g *Group) Join(user string) { g.members[user] = true }

// Members lists members, sorted.
func (g *Group) Members() []string {
	out := make([]string, 0, len(g.members))
	for m := range g.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

func (g *Group) judge(req AccessRequest) Decision {
	for _, r := range g.rules {
		if d := r.Judge(req, g); d != Abstain {
			return d
		}
	}
	return Deny
}

// Read reads key through the access rules. Reads never block; a denied read
// returns ErrDenied.
func (g *Group) Read(user, key string, now time.Duration) (string, error) {
	if !g.members[user] {
		return "", fmt.Errorf("%w: %s in %s", ErrNotMember, user, g.name)
	}
	g.stats.Ops++
	req := AccessRequest{User: user, Key: key, Kind: AccessRead, At: now}
	d := g.judge(req)
	if d == Deny {
		g.stats.Denied++
		return "", fmt.Errorf("%w: read %s by %s", ErrDenied, key, user)
	}
	g.stats.Allowed++
	if d == AllowNotify {
		g.broadcast(req)
	}
	v, _ := g.local.Get(key)
	return v, nil
}

// Write writes key through the access rules. Writes apply immediately to
// the group store — members are not isolated from each other.
func (g *Group) Write(user, key, value string, now time.Duration) error {
	if !g.members[user] {
		return fmt.Errorf("%w: %s in %s", ErrNotMember, user, g.name)
	}
	g.stats.Ops++
	req := AccessRequest{User: user, Key: key, Kind: AccessWrite, Value: value, At: now}
	d := g.judge(req)
	if d == Deny {
		g.stats.Denied++
		return fmt.Errorf("%w: write %s by %s", ErrDenied, key, user)
	}
	g.stats.Allowed++
	g.local.Set(key, value)
	if d == AllowNotify {
		g.broadcast(req)
	}
	return nil
}

func (g *Group) broadcast(req AccessRequest) {
	if g.notify == nil {
		return
	}
	for _, m := range g.Members() {
		if m == req.User {
			continue
		}
		g.stats.Notifications++
		g.notify(GroupEvent{
			Group: g.name, User: req.User, To: m,
			Key: req.Key, Kind: req.Kind, Value: req.Value, At: req.At,
		})
	}
}

// Commit merges the group store into the parent store and returns the
// number of keys written. The group remains usable (long-lived cooperative
// sessions checkpoint periodically).
func (g *Group) Commit(now time.Duration) int {
	n := 0
	for _, k := range g.local.Keys() {
		v, _ := g.local.Get(k)
		if pv, ok := g.parent.Get(k); !ok || pv != v {
			g.parent.Set(k, v)
			n++
		}
	}
	return n
}

// Built-in rules implementing the cooperation policies the paper sketches.

// RuleReadAll permits every read (with notification if notify is true).
func RuleReadAll(notifyPeers bool) Rule {
	return Rule{
		Name: "read-all",
		Judge: func(req AccessRequest, _ *Group) Decision {
			if req.Kind != AccessRead {
				return Abstain
			}
			if notifyPeers {
				return AllowNotify
			}
			return Allow
		},
	}
}

// RuleWriteNotify permits every write but notifies the other members — the
// brainstorming policy (full information flow, no walls).
func RuleWriteNotify() Rule {
	return Rule{
		Name: "write-notify",
		Judge: func(req AccessRequest, _ *Group) Decision {
			if req.Kind != AccessWrite {
				return Abstain
			}
			return AllowNotify
		},
	}
}
