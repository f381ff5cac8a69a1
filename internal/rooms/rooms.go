// Package rooms implements the spatial work metaphors of the paper's §3.3.2
// "The use of space":
//
//   - a *rooms* model (Henderson & Card; Cook & Birch's virtual meeting
//     rooms): personal spaces (offices), shared spaces (meeting rooms) and
//     *doors* to move between them, with door state (open / ajar / closed)
//     governing who may enter and what leaks out;
//   - a *media space* (RAVE, Portholes): an ambient awareness service that
//     periodically publishes low-fidelity snapshots ("portholes") of each
//     room's occupancy and activity to subscribers, honouring door state —
//     the "augmented reality where the everyday features of the workplace
//     are extended by facilities provided by computer systems".
//
// Rooms project onto the awareness package's spatial model: each room has a
// position in the interaction space, and occupants of a room share full
// mutual awareness while closed doors suppress projection (nimbus) to the
// outside.
package rooms

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/awareness"
)

// DoorState controls a room's permeability.
type DoorState int

const (
	// Open admits anyone and projects activity outward.
	Open DoorState = iota + 1
	// Ajar admits knockers on acceptance and projects presence only.
	Ajar
	// Closed admits nobody and projects nothing.
	Closed
)

// String returns the door state name.
func (d DoorState) String() string {
	switch d {
	case Open:
		return "open"
	case Ajar:
		return "ajar"
	case Closed:
		return "closed"
	default:
		return fmt.Sprintf("DoorState(%d)", int(d))
	}
}

// RoomKind distinguishes personal from shared spaces.
type RoomKind int

const (
	// Office is a personal space with an owner.
	Office RoomKind = iota + 1
	// MeetingRoom is a shared space.
	MeetingRoom
)

// String returns the kind name.
func (k RoomKind) String() string {
	if k == Office {
		return "office"
	}
	return "meeting-room"
}

// Errors returned by the house.
var (
	ErrNoRoom      = errors.New("rooms: unknown room")
	ErrDoorClosed  = errors.New("rooms: the door is closed")
	ErrMustKnock   = errors.New("rooms: the door is ajar — knock first")
	ErrNotPresent  = errors.New("rooms: user is not in that room")
	ErrNotOwner    = errors.New("rooms: only the owner may do that")
	ErrNoSuchKnock = errors.New("rooms: no pending knock from that user")
)

// Room is one space.
type Room struct {
	Name      string
	Kind      RoomKind
	Owner     string // offices only
	Door      DoorState
	Pos       awareness.Vec
	occupants map[string]bool
	knocks    map[string]bool
	activity  int // activity counter since the last porthole snapshot
}

// Occupants lists present users, sorted.
func (r *Room) Occupants() []string {
	out := make([]string, 0, len(r.occupants))
	for u := range r.occupants {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// House is a set of rooms plus the people moving among them. It drives an
// awareness space so room-based presence composes with the spatial model.
type House struct {
	rooms map[string]*Room
	where map[string]string // user -> room name
	space *awareness.Space
	// OnEvent observes movements and knocks; nil discards.
	OnEvent func(e Event)
}

// Event is a house notification.
type Event struct {
	Kind string // "enter", "leave", "knock", "admit", "door", "activity"
	User string
	Room string
	At   time.Duration
}

// NewHouse creates an empty house over the given awareness space (may be
// nil to run without spatial integration).
func NewHouse(space *awareness.Space) *House {
	return &House{
		rooms: make(map[string]*Room),
		where: make(map[string]string),
		space: space,
	}
}

func (h *House) emit(e Event) {
	if h.OnEvent != nil {
		h.OnEvent(e)
	}
}

// AddRoom creates a room at a position in the interaction space.
func (h *House) AddRoom(name string, kind RoomKind, owner string, pos awareness.Vec) *Room {
	r := &Room{
		Name: name, Kind: kind, Owner: owner, Door: Open, Pos: pos,
		occupants: make(map[string]bool), knocks: make(map[string]bool),
	}
	h.rooms[name] = r
	return r
}

// WhereIs returns the room a user currently occupies ("" if nowhere).
func (h *House) WhereIs(user string) string { return h.where[user] }

// SetDoor changes a room's door state; only the owner of an office may.
func (h *House) SetDoor(user, room string, d DoorState, now time.Duration) error {
	r, ok := h.rooms[room]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoom, room)
	}
	if r.Kind == Office && r.Owner != user {
		return fmt.Errorf("%w: %s on %s", ErrNotOwner, user, room)
	}
	r.Door = d
	h.emit(Event{Kind: "door", User: user, Room: room, At: now})
	h.reproject(r)
	return nil
}

// reproject adjusts occupants' awareness entities for the room's door
// state: a closed door zeroes everyone's nimbus (no outward projection); an
// ajar door projects presence weakly; an open door projects normally.
func (h *House) reproject(r *Room) {
	if h.space == nil {
		return
	}
	nimbus := 3.0
	switch r.Door {
	case Ajar:
		nimbus = 1.0
	case Closed:
		nimbus = 0.0
	}
	for u := range r.occupants {
		h.space.Place(awareness.Entity{ID: u, Pos: r.Pos, Aura: 10, Focus: 3, Nimbus: nimbus})
	}
}

// Enter moves a user into a room, subject to its door. Entering a room
// automatically leaves the previous one.
func (h *House) Enter(user, room string, now time.Duration) error {
	r, ok := h.rooms[room]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoom, room)
	}
	if r.Kind == Office && r.Owner == user {
		// Owners always get into their own office.
	} else {
		switch r.Door {
		case Closed:
			return fmt.Errorf("%w: %s", ErrDoorClosed, room)
		case Ajar:
			if !r.knocks[user] {
				return fmt.Errorf("%w: %s", ErrMustKnock, room)
			}
			delete(r.knocks, user)
		}
	}
	if prev := h.where[user]; prev != "" {
		h.leaveRoom(user, prev, now)
	}
	r.occupants[user] = true
	h.where[user] = room
	h.emit(Event{Kind: "enter", User: user, Room: room, At: now})
	h.reproject(r)
	return nil
}

func (h *House) leaveRoom(user, room string, now time.Duration) {
	if r, ok := h.rooms[room]; ok {
		delete(r.occupants, user)
		h.emit(Event{Kind: "leave", User: user, Room: room, At: now})
	}
	delete(h.where, user)
}

// Knock requests entry to an ajar or closed room. The occupant(s) see the
// knock; Admit lets the knocker in (ajar rooms remember the admission so
// the knocker's next Enter succeeds).
func (h *House) Knock(user, room string, now time.Duration) error {
	r, ok := h.rooms[room]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoom, room)
	}
	if r.Door == Open {
		return nil // no need; just walk in
	}
	h.emit(Event{Kind: "knock", User: user, Room: room, At: now})
	r.knocks[user] = false // pending, not yet admitted
	return nil
}

// Admit accepts a knocker. For offices only the owner admits; for meeting
// rooms any occupant may.
func (h *House) Admit(host, knocker, room string, now time.Duration) error {
	r, ok := h.rooms[room]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoom, room)
	}
	if _, pending := r.knocks[knocker]; !pending {
		return fmt.Errorf("%w: %s at %s", ErrNoSuchKnock, knocker, room)
	}
	if r.Kind == Office {
		if host != r.Owner {
			return fmt.Errorf("%w: %s", ErrNotOwner, host)
		}
	} else if !r.occupants[host] {
		return fmt.Errorf("%w: %s in %s", ErrNotPresent, host, room)
	}
	r.knocks[knocker] = true
	h.emit(Event{Kind: "admit", User: knocker, Room: room, At: now})
	return nil
}

// Activity records work happening in the user's current room (typing,
// drawing, speaking) for the media space's snapshots.
func (h *House) Activity(user string, now time.Duration) error {
	room := h.where[user]
	if room == "" {
		return fmt.Errorf("%w: %s", ErrNotPresent, user)
	}
	h.rooms[room].activity++
	h.emit(Event{Kind: "activity", User: user, Room: room, At: now})
	return nil
}
