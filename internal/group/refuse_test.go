package group

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestNewMemberRefusesIncompleteConfig: a member needs an endpoint, a
// deliver callback and one of the five orderings.
func TestNewMemberRefusesIncompleteConfig(t *testing.T) {
	ep := &pumpEndpoint{net: &pumpNet{}, id: "m00"}
	deliver := func(Delivery) {}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no endpoint", Config{Ordering: FIFO, Deliver: deliver}, "needs an endpoint"},
		{"no deliver callback", Config{Endpoint: ep, Ordering: FIFO}, "needs a deliver callback"},
		{"no ordering", Config{Endpoint: ep, Deliver: deliver}, "needs an ordering, not Ordering(0)"},
		{"unknown ordering", Config{Endpoint: ep, Ordering: TotalToken + 1, Deliver: deliver}, "needs an ordering, not Ordering(6)"},
	} {
		if m, err := NewMember(c.cfg); m != nil || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewMember = (%v, %v), want %q", c.name, m, err, c.want)
		}
	}
}

// TestForeignPayloadIgnored: a payload that is not a group packet, on an
// endpoint the member shares, is not the member's: it delivers nothing and
// sends nothing.
func TestForeignPayloadIgnored(t *testing.T) {
	n := newPumpNet(t, FIFO)
	before := len(n.deliv["m01"])
	n.members["m01"].Receive("m02", "session traffic")
	if len(n.queue) != 0 || len(n.deliv["m01"]) != before {
		t.Fatalf("a foreign payload queued %d sends and %d deliveries", len(n.queue), len(n.deliv["m01"])-before)
	}
}

// TestEmptyViewHasNoSequencer: a view with no members names no sequencer.
func TestEmptyViewHasNoSequencer(t *testing.T) {
	if s := NewView(1, nil).Sequencer(); s != "" {
		t.Fatalf("Sequencer of an empty view = %q", s)
	}
}

// TestCallRefusals: a member outside the view cannot call, and a call with
// a deadline needs a timer; neither leaves a pending call behind.
func TestCallRefusals(t *testing.T) {
	n := newPumpNet(t, FIFO)
	m := n.members["m00"]
	done := func([]Reply, error) { t.Error("a refused call completed") }
	if err := m.Call("op", nil, CallOpts{Deadline: time.Second}, done); err == nil || !strings.Contains(err.Error(), "deadline requires a timer") {
		t.Errorf("Call with a deadline and no timer = %v", err)
	}
	m.InstallView(NewView(2, []string{"m01", "m02"}))
	if err := m.Call("op", nil, CallOpts{}, done); !errors.Is(err, ErrNotMember) {
		t.Errorf("Call outside the view = %v, want ErrNotMember", err)
	}
	if len(m.calls) != 0 {
		t.Errorf("%d calls pending after two refusals", len(m.calls))
	}
}

// TestStrayRPCReplyIgnored: a reply to a call this member never made, or
// one already answered, completes nothing.
func TestStrayRPCReplyIgnored(t *testing.T) {
	n := newPumpNet(t, FIFO)
	n.members["m00"].Receive("m01", &packet{Kind: kRPCRep, From: "m01", ViewID: 1, CallID: 99, Body: "late"})
	if len(n.queue) != 0 || len(n.members["m00"].calls) != 0 {
		t.Fatalf("a stray reply queued %d sends, left %d calls", len(n.queue), len(n.members["m00"].calls))
	}
}

// TestNackSkippedWhenNextIsHeld: a FIFO gap check whose earliest held
// message is the next one due asks for nothing.
func TestNackSkippedWhenNextIsHeld(t *testing.T) {
	n := newPumpNet(t, FIFO)
	m := n.members["m00"]
	next := m.fifoNext["m02"]
	m.fifoHold["m02"] = map[uint64]*packet{next: {Kind: kData, From: "m02", SenderSeq: next}}
	m.maybeNack("m02")
	if len(n.queue) != 0 || m.nacked["m02"] != 0 {
		t.Fatalf("maybeNack queued %d sends, nacked up to %d", len(n.queue), m.nacked["m02"])
	}
}

// TestSeqMarkFirst: the sequencer's per-origin record of message numbers
// takes each number once, whatever order it comes in, and gives up holes
// more than reorderWindow below the newest number, so it never holds more
// than reorderWindow numbers above its high-water mark.
func TestSeqMarkFirst(t *testing.T) {
	for _, c := range []struct {
		name   string
		before []uint64 // numbers recorded first, each new
		n      uint64
		want   bool
		hw     uint64 // hw after n
		above  int    // len(above) after n
	}{
		{"replay below hw", []uint64{1, 2, 3}, 2, false, 3, 0},
		{"replay at hw", []uint64{1, 2, 3}, 3, false, 3, 0},
		{"duplicate held above", []uint64{1, 3}, 3, false, 1, 1},
		{"filled hole advances hw", []uint64{1, 3, 4}, 2, true, 4, 0},
		{"hole left open", []uint64{1}, 3, true, 1, 1},
		{"jump past the window gives up the older holes", []uint64{1, 3, 5}, 5 + reorderWindow, true, 5, 1},
		{"jump far past the window", []uint64{1, 3}, 10 * reorderWindow, true, 9 * reorderWindow, 1},
	} {
		var s seqMark
		for _, k := range c.before {
			if !s.first(k) {
				t.Fatalf("%s: setting up, %d read as seen", c.name, k)
			}
		}
		if got := s.first(c.n); got != c.want || s.hw != c.hw || len(s.above) != c.above {
			t.Errorf("%s: first(%d) = %v, hw %d, %d above; want %v, hw %d, %d above", c.name, c.n, got, s.hw, len(s.above), c.want, c.hw, c.above)
		}
		if len(s.above) > reorderWindow {
			t.Errorf("%s: %d numbers held above hw, more than reorderWindow", c.name, len(s.above))
		}
	}

	// Every hole of a full window, then one number past it: above never
	// holds more than reorderWindow numbers.
	var s seqMark
	for k := uint64(2); k <= 2*reorderWindow+2; k += 2 {
		s.first(k)
		if len(s.above) > reorderWindow {
			t.Fatalf("after %d: %d numbers above hw %d", k, len(s.above), s.hw)
		}
	}
}
