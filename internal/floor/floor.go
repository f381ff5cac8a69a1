// Package floor implements floor-control ("reservation") concurrency for
// synchronous conferences (paper §4.2.1): exactly one participant interacts
// with the shared application at a time, turns being arbitrated by a
// pluggable policy. The paper notes conferencing systems use floor passing,
// Colab used informal negotiation, and that reservation is only suitable
// when operations need not interleave — experiment E4 quantifies exactly
// that serialisation cost against OT and lock-based schemes.
//
// Policies:
//
//   - FreeFloor: first come first served; the floor is taken when free and
//     queued requests are granted FIFO on release.
//   - Chair: a designated chair explicitly grants the floor to requesters.
//   - RoundRobin: on release the floor rotates to the next requester in
//     member order.
//   - Negotiate: requests while the floor is busy notify the holder, who
//     may yield (the informal Colab style).
package floor

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Policy selects the arbitration style.
type Policy int

const (
	// FreeFloor grants to the first requester, FIFO thereafter.
	FreeFloor Policy = iota + 1
	// Chair routes grants through a designated chair.
	Chair
	// RoundRobin rotates among requesters in member order.
	RoundRobin
	// Negotiate notifies the holder of every request.
	Negotiate
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FreeFloor:
		return "free-floor"
	case Chair:
		return "chair"
	case RoundRobin:
		return "round-robin"
	case Negotiate:
		return "negotiate"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// EventType classifies floor events.
type EventType int

const (
	// EvRequested reports a request arriving (holders and chairs see it).
	EvRequested EventType = iota + 1
	// EvGranted reports the floor being granted.
	EvGranted
	// EvReleased reports a voluntary release.
	EvReleased
)

// String returns the event name.
func (e EventType) String() string {
	switch e {
	case EvRequested:
		return "requested"
	case EvGranted:
		return "granted"
	case EvReleased:
		return "released"
	default:
		return fmt.Sprintf("EventType(%d)", int(e))
	}
}

// Event is a floor-control notification.
type Event struct {
	Type EventType
	User string // the subject of the event
	By   string // the causing party (the requester)
	At   time.Duration
}

// Errors returned by the controller.
var (
	ErrNotParticipant = errors.New("floor: not a session participant")
	ErrNotHolder      = errors.New("floor: caller does not hold the floor")
	ErrNotChair       = errors.New("floor: caller is not the chair")
	ErrAlreadyHolder  = errors.New("floor: caller already holds the floor")
	ErrNoRequest      = errors.New("floor: user has no pending request")
)

// Stats aggregates controller activity.
type Stats struct {
	Requests  int
	Grants    int
	TotalWait time.Duration
}

// MeanWait is the mean time between request and grant.
func (s Stats) MeanWait() time.Duration {
	if s.Grants == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.Grants)
}

type request struct {
	user  string
	since time.Duration
}

// Controller arbitrates one floor among a fixed set of participants. It is
// single-threaded like the rest of the simulation-facing layers.
type Controller struct {
	policy   Policy
	members  []string
	isMember map[string]bool
	chair    string
	emit     func(Event)

	holder  string
	queue   []request
	rrIndex int // RoundRobin: index of the last holder in members
	stats   Stats
}

// Options configures a controller.
type Options struct {
	// Chair designates the chair (required for the Chair policy).
	Chair string
	// Emit receives events; nil discards.
	Emit func(Event)
}

// NewController creates a floor controller for the given participants.
func NewController(policy Policy, members []string, opts Options) (*Controller, error) {
	if policy == Chair && opts.Chair == "" {
		return nil, errors.New("floor: chair policy requires a chair")
	}
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	im := make(map[string]bool, len(ms))
	for _, m := range ms {
		im[m] = true
	}
	if policy == Chair && !im[opts.Chair] {
		return nil, fmt.Errorf("floor: chair %q is not a participant", opts.Chair)
	}
	return &Controller{
		policy:   policy,
		members:  ms,
		isMember: im,
		chair:    opts.Chair,
		emit:     opts.Emit,
	}, nil
}

// Holder returns the current floor holder ("" when free).
func (c *Controller) Holder() string { return c.holder }

// QueueLength returns the number of waiting requests.
func (c *Controller) QueueLength() int { return len(c.queue) }

// Stats returns accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

func (c *Controller) event(t EventType, user, by string, at time.Duration) {
	if c.emit != nil {
		c.emit(Event{Type: t, User: user, By: by, At: at})
	}
}

func (c *Controller) grant(user string, since, now time.Duration) {
	c.holder = user
	c.stats.Grants++
	c.stats.TotalWait += now - since
	if c.policy == RoundRobin {
		for i, m := range c.members {
			if m == user {
				c.rrIndex = i
			}
		}
	}
	c.event(EvGranted, user, "", now)
}

// Request asks for the floor. Returns true when granted immediately.
func (c *Controller) Request(user string, now time.Duration) (bool, error) {
	if !c.isMember[user] {
		return false, fmt.Errorf("%w: %s", ErrNotParticipant, user)
	}
	if c.holder == user {
		return false, ErrAlreadyHolder
	}
	for _, r := range c.queue {
		if r.user == user {
			return false, nil // already queued; idempotent
		}
	}
	c.stats.Requests++
	c.event(EvRequested, user, user, now)
	if c.holder == "" && c.policy != Chair {
		c.grant(user, now, now)
		return true, nil
	}
	c.queue = append(c.queue, request{user: user, since: now})
	if c.policy == Negotiate && c.holder != "" {
		// The holder is explicitly told someone wants the floor.
		c.event(EvRequested, c.holder, user, now)
	}
	return false, nil
}

// Release gives up the floor. The next holder depends on the policy.
func (c *Controller) Release(user string, now time.Duration) error {
	if c.holder != user {
		return fmt.Errorf("%w: %s", ErrNotHolder, user)
	}
	c.holder = ""
	c.event(EvReleased, user, "", now)
	c.promote(now)
	return nil
}

// promote hands the free floor to the next requester per policy.
func (c *Controller) promote(now time.Duration) {
	if len(c.queue) == 0 || c.holder != "" {
		return
	}
	switch c.policy {
	case Chair:
		return // the chair grants explicitly
	case RoundRobin:
		// Next requester scanning members circularly from the last holder.
		for step := 1; step <= len(c.members); step++ {
			cand := c.members[(c.rrIndex+step)%len(c.members)]
			for qi, r := range c.queue {
				if r.user == cand {
					c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
					c.grant(cand, r.since, now)
					return
				}
			}
		}
	default: // FreeFloor, Negotiate: FIFO
		r := c.queue[0]
		c.queue = c.queue[1:]
		c.grant(r.user, r.since, now)
	}
}

// Grant is the chair's explicit grant to a queued requester.
func (c *Controller) Grant(chair, user string, now time.Duration) error {
	if c.policy != Chair {
		return errors.New("floor: explicit grant only under chair policy")
	}
	if chair != c.chair {
		return fmt.Errorf("%w: %s", ErrNotChair, chair)
	}
	if c.holder != "" {
		return fmt.Errorf("floor: %s still holds the floor", c.holder)
	}
	for qi, r := range c.queue {
		if r.user == user {
			c.queue = append(c.queue[:qi], c.queue[qi+1:]...)
			c.grant(user, r.since, now)
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrNoRequest, user)
}
