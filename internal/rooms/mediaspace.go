package rooms

import (
	"fmt"
	"sort"
	"time"
)

// Porthole is one low-fidelity room snapshot, the Portholes unit of ambient
// awareness: who is there and how busy the room is, but not what they are
// doing.
type Porthole struct {
	Room      string
	Occupants []string
	Activity  int // events since the previous snapshot
	DoorState DoorState
	At        time.Duration
}

// String renders the snapshot one-line, as a Portholes tile would.
func (p Porthole) String() string {
	return fmt.Sprintf("[%s] door %s, %d present, activity %d",
		p.Room, p.DoorState, len(p.Occupants), p.Activity)
}

// MediaSpace periodically snapshots every room and distributes portholes to
// subscribers, honouring door state: closed doors publish nothing, ajar
// doors publish presence counts but hide identities, open doors publish
// everything.
type MediaSpace struct {
	house *House
	subs  map[string]func(Porthole)
	// Published counts snapshots distributed.
	Published int
}

// NewMediaSpace creates a media space over the house.
func NewMediaSpace(house *House) *MediaSpace {
	return &MediaSpace{house: house, subs: make(map[string]func(Porthole))}
}

// Subscribe registers a porthole sink for a user.
func (m *MediaSpace) Subscribe(user string, sink func(Porthole)) {
	m.subs[user] = sink
}

// Snapshot captures and distributes one round of portholes, returning what
// was published. Call it on a timer (sim.Every over netsim, time.Ticker in
// live deployments).
func (m *MediaSpace) Snapshot(now time.Duration) []Porthole {
	names := make([]string, 0, len(m.house.rooms))
	for n := range m.house.rooms {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Porthole
	for _, name := range names {
		r := m.house.rooms[name]
		if r.Door == Closed {
			r.activity = 0 // still consumed, just never shown
			continue
		}
		p := Porthole{Room: name, Activity: r.activity, DoorState: r.Door, At: now}
		if r.Door == Open {
			p.Occupants = r.Occupants()
		} else {
			// Ajar: presence without identity.
			p.Occupants = make([]string, len(r.occupants))
			for i := range p.Occupants {
				p.Occupants[i] = "someone"
			}
		}
		r.activity = 0
		out = append(out, p)
		for user, sink := range m.subs {
			// Nobody needs a porthole of the room they are standing in.
			if m.house.WhereIs(user) == name {
				continue
			}
			m.Published++
			sink(p)
		}
	}
	return out
}
