// Package vclock provides logical clocks for tracking causality in
// distributed CSCW sessions: Lamport scalar clocks and vector clocks.
//
// Vector clocks are the causality substrate for the causal-order multicast
// in package group and for the dOPT state vectors in package ot. The
// implementation follows the classic Fidge/Mattern formulation: each site
// keeps one counter per known site, increments its own counter on local
// events, and merges component-wise maxima on message receipt.
package vclock

import (
	"fmt"
	"sort"
	"strings"
)

// Ordering describes the causal relationship between two vector clocks.
type Ordering int

const (
	// Before means the left clock happened-before the right clock.
	Before Ordering = iota + 1
	// After means the right clock happened-before the left clock.
	After
	// Equal means the clocks are identical.
	Equal
	// Concurrent means neither clock happened-before the other.
	Concurrent
)

// String returns a human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Before:
		return "before"
	case After:
		return "after"
	case Equal:
		return "equal"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// VC is a vector clock mapping site identifiers to event counters.
// The zero value is not usable; construct with New.
type VC map[string]uint64

// New returns an empty vector clock.
func New() VC {
	return make(VC)
}

// Clone returns an independent copy of the clock.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	for k, n := range v {
		out[k] = n
	}
	return out
}

// Tick increments the counter for site and returns the clock for chaining.
func (v VC) Tick(site string) VC {
	v[site]++
	return v
}

// Get returns the counter for site (zero if the site is unknown).
func (v VC) Get(site string) uint64 {
	return v[site]
}

// Merge sets every component of v to the maximum of v and other.
func (v VC) Merge(other VC) VC {
	for k, n := range other {
		if n > v[k] {
			v[k] = n
		}
	}
	return v
}

// Compare reports the causal ordering of v relative to other.
func (v VC) Compare(other VC) Ordering {
	less, greater := false, false
	for k, n := range v {
		o := other[k]
		if n < o {
			less = true
		} else if n > o {
			greater = true
		}
	}
	for k, o := range other {
		if _, ok := v[k]; !ok && o > 0 {
			less = true
		}
	}
	switch {
	case less && greater:
		return Concurrent
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// HappensBefore reports whether v causally precedes other.
func (v VC) HappensBefore(other VC) bool {
	return v.Compare(other) == Before
}

// ConcurrentWith reports whether v and other are causally concurrent.
func (v VC) ConcurrentWith(other VC) bool {
	return v.Compare(other) == Concurrent
}

// Deliverable reports whether a message stamped msg from sender can be
// causally delivered at a site whose current clock is v: the message must be
// the next expected event from sender and must not depend on any event the
// receiver has not yet seen.
func Deliverable(msg VC, sender string, v VC) bool {
	for site, n := range msg {
		if site == sender {
			if n != v[site]+1 {
				return false
			}
			continue
		}
		if n > v[site] {
			return false
		}
	}
	return true
}

// String renders the clock deterministically, e.g. {a:1 b:3}.
func (v VC) String() string {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, v[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Lamport is a scalar logical clock (Lamport 1978). The zero value is ready
// to use. Lamport clocks provide a total order consistent with causality and
// are used for tie-breaking in the OT layer and for total-order sequencing.
type Lamport struct {
	time uint64
}

// Tick advances the clock for a local event and returns the new time.
func (l *Lamport) Tick() uint64 {
	l.time++
	return l.time
}

// Observe merges a remote timestamp, advancing past it, and returns the new
// local time.
func (l *Lamport) Observe(remote uint64) uint64 {
	if remote > l.time {
		l.time = remote
	}
	l.time++
	return l.time
}

// Now returns the current time without advancing the clock.
func (l *Lamport) Now() uint64 {
	return l.time
}
