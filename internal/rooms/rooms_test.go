package rooms

import (
	"errors"
	"testing"
	"time"

	"repro/internal/awareness"
)

func house() *House {
	h := NewHouse(awareness.NewSpace(awareness.Config{DisableTemporal: true}))
	h.AddRoom("gordon-office", Office, "gordon", awareness.Vec{X: 0})
	h.AddRoom("lab", MeetingRoom, "", awareness.Vec{X: 5})
	h.AddRoom("coffee", MeetingRoom, "", awareness.Vec{X: 10})
	return h
}

func TestEnterLeaveMove(t *testing.T) {
	h := house()
	if err := h.Enter("tom", "lab", 0); err != nil {
		t.Fatal(err)
	}
	if h.WhereIs("tom") != "lab" {
		t.Fatalf("WhereIs = %q", h.WhereIs("tom"))
	}
	// Moving to another room leaves the first.
	if err := h.Enter("tom", "coffee", time.Second); err != nil {
		t.Fatal(err)
	}
	if got := h.rooms["lab"].Occupants(); len(got) != 0 {
		t.Errorf("lab occupants = %v", got)
	}
	if got := h.rooms["coffee"].Occupants(); len(got) != 1 || got[0] != "tom" {
		t.Errorf("coffee occupants = %v", got)
	}
	if err := h.Enter("tom", "nowhere", 0); !errors.Is(err, ErrNoRoom) {
		t.Errorf("enter unknown = %v", err)
	}
}

func TestDoorStates(t *testing.T) {
	h := house()
	// Only the owner controls an office door.
	if err := h.SetDoor("tom", "gordon-office", Closed, 0); !errors.Is(err, ErrNotOwner) {
		t.Errorf("non-owner door = %v", err)
	}
	if err := h.SetDoor("gordon", "gordon-office", Closed, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Enter("tom", "gordon-office", 0); !errors.Is(err, ErrDoorClosed) {
		t.Errorf("closed door = %v", err)
	}
	// The owner still gets in.
	if err := h.Enter("gordon", "gordon-office", 0); err != nil {
		t.Fatalf("owner entry: %v", err)
	}
	// Ajar: knock, be admitted, then enter.
	if err := h.SetDoor("gordon", "gordon-office", Ajar, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.Enter("tom", "gordon-office", time.Second); !errors.Is(err, ErrMustKnock) {
		t.Errorf("ajar entry without knock = %v", err)
	}
	if err := h.Knock("tom", "gordon-office", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.Admit("tom", "tom", "gordon-office", time.Second); !errors.Is(err, ErrNotOwner) {
		t.Errorf("self-admit to office = %v", err)
	}
	if err := h.Admit("gordon", "tom", "gordon-office", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h.Enter("tom", "gordon-office", 2*time.Second); err != nil {
		t.Fatalf("admitted entry: %v", err)
	}
	if err := h.Admit("gordon", "nobody", "gordon-office", 0); !errors.Is(err, ErrNoSuchKnock) {
		t.Errorf("admit without knock = %v", err)
	}
}

func TestMeetingRoomAdmitByOccupant(t *testing.T) {
	h := house()
	h.Enter("ann", "lab", 0)
	if err := h.SetDoor("ann", "lab", Ajar, 0); err != nil {
		t.Fatal(err) // meeting rooms: any user may set the door
	}
	h.Knock("ben", "lab", 0)
	if err := h.Admit("cho", "ben", "lab", 0); !errors.Is(err, ErrNotPresent) {
		t.Errorf("outsider admit = %v", err)
	}
	if err := h.Admit("ann", "ben", "lab", 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Enter("ben", "lab", 0); err != nil {
		t.Fatal(err)
	}
}

func TestAwarenessIntegration(t *testing.T) {
	space := awareness.NewSpace(awareness.Config{DisableTemporal: true})
	h := NewHouse(space)
	h.AddRoom("lab", MeetingRoom, "", awareness.Vec{X: 0})
	h.AddRoom("far", MeetingRoom, "", awareness.Vec{X: 100})
	h.Enter("ann", "lab", 0)
	h.Enter("ben", "lab", 0)
	h.Enter("cho", "far", 0)
	// Same room: full mutual awareness. Distant room: none.
	if w := space.Weight("ann", "ben", 0); w != 1 {
		t.Errorf("same-room weight = %v", w)
	}
	if w := space.Weight("ann", "cho", 0); w != 0 {
		t.Errorf("distant weight = %v", w)
	}
	// Closing the lab door cuts ann's projection to outsiders but not to
	// her roommates (focus still reaches; nimbus is zero though, so mutual
	// awareness inside needs the door open — ajar keeps a short nimbus).
	if err := h.SetDoor("ann", "lab", Ajar, 0); err != nil {
		t.Fatal(err)
	}
	if w := space.Weight("ben", "ann", 0); w <= 0 {
		t.Errorf("ajar same-room weight = %v, should stay positive", w)
	}
}

func TestEventsEmitted(t *testing.T) {
	h := house()
	var kinds []string
	h.OnEvent = func(e Event) { kinds = append(kinds, e.Kind) }
	h.Enter("tom", "lab", 0)
	h.Activity("tom", time.Second)
	h.SetDoor("tom", "lab", Ajar, 2*time.Second)
	h.Knock("ann", "lab", 3*time.Second)
	h.Admit("tom", "ann", "lab", 4*time.Second)
	h.Enter("ann", "lab", 5*time.Second)
	h.Enter("tom", "coffee", 6*time.Second)
	want := []string{"enter", "activity", "door", "knock", "admit", "enter", "leave", "enter"}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, kinds[i], want[i])
		}
	}
	if err := h.Activity("ghost", 0); !errors.Is(err, ErrNotPresent) {
		t.Errorf("ghost activity = %v", err)
	}
}

func TestMediaSpacePortholes(t *testing.T) {
	h := house()
	ms := NewMediaSpace(h)
	h.Enter("ann", "lab", 0)
	h.Enter("ben", "lab", 0)
	h.Enter("cho", "coffee", 0)
	h.Activity("ann", 0)
	h.Activity("ann", 0)
	h.Activity("cho", 0)

	var got []Porthole
	ms.Subscribe("dave", func(p Porthole) { got = append(got, p) })
	shots := ms.Snapshot(time.Minute)
	if len(shots) != 3 {
		t.Fatalf("snapshots = %d", len(shots))
	}
	byRoom := map[string]Porthole{}
	for _, p := range got {
		byRoom[p.Room] = p
	}
	lab := byRoom["lab"]
	if len(lab.Occupants) != 2 || lab.Activity != 2 {
		t.Errorf("lab porthole = %+v", lab)
	}
	if byRoom["coffee"].Activity != 1 {
		t.Errorf("coffee porthole = %+v", byRoom["coffee"])
	}
	// Activity counters reset after a snapshot.
	shots = ms.Snapshot(2 * time.Minute)
	for _, p := range shots {
		if p.Activity != 0 {
			t.Errorf("activity not reset: %+v", p)
		}
	}
}

func TestMediaSpaceHonoursDoors(t *testing.T) {
	h := house()
	ms := NewMediaSpace(h)
	h.Enter("ann", "lab", 0)
	h.SetDoor("ann", "lab", Ajar, 0)
	h.Enter("gordon", "gordon-office", 0)
	h.SetDoor("gordon", "gordon-office", Closed, 0)

	var got []Porthole
	ms.Subscribe("watcher", func(p Porthole) { got = append(got, p) })
	ms.Snapshot(time.Minute)
	for _, p := range got {
		if p.Room == "gordon-office" {
			t.Error("closed room must publish nothing")
		}
		if p.Room == "lab" {
			if len(p.Occupants) != 1 || p.Occupants[0] != "someone" {
				t.Errorf("ajar room should anonymise: %+v", p.Occupants)
			}
		}
	}
}

func TestMediaSpaceOwnRoomSkipped(t *testing.T) {
	h := house()
	ms := NewMediaSpace(h)
	h.Enter("ann", "lab", 0)
	var got []Porthole
	ms.Subscribe("ann", func(p Porthole) { got = append(got, p) })
	ms.Snapshot(time.Minute)
	for _, p := range got {
		if p.Room == "lab" {
			t.Error("subscribers should not receive their own room")
		}
	}
}

func TestStrings(t *testing.T) {
	if Open.String() != "open" || Ajar.String() != "ajar" || Closed.String() != "closed" {
		t.Error("door names")
	}
	if Office.String() != "office" || MeetingRoom.String() != "meeting-room" {
		t.Error("kind names")
	}
	p := Porthole{Room: "lab", DoorState: Open, Occupants: []string{"a"}, Activity: 2}
	if p.String() == "" {
		t.Error("porthole string")
	}
}
