package netsim

import (
	"errors"
	"testing"
	"time"
)

// TestFaultTopologyEdges drives the fault-topology surface (Partition, Heal,
// SetLink, Crash, Restart) through its edge cases in one table.
// Every case starts with nodes a, b, c (handlers installed) and mute (no
// handler), runs setup, issues the listed sends, drains the simulator and
// checks per-node delivery counts plus the sent/dropped/noHandler ledger.
func TestFaultTopologyEdges(t *testing.T) {
	type send struct {
		from, to string
		wantErr  error // nil means the send is accepted
	}
	cases := []struct {
		name          string
		setup         func(s *Sim)
		sends         []send
		wantDelivered map[string]int
		wantDropped   int
		wantNoHandler int
	}{
		{
			// Partition severs every cross-pair in both directions; links
			// inside each side stay up.
			name:  "partition severs both directions",
			setup: func(s *Sim) { s.Partition([]string{"a"}, []string{"b", "c"}) },
			sends: []send{
				{"a", "b", ErrNoRoute},
				{"b", "a", ErrNoRoute},
				{"c", "a", ErrNoRoute},
				{"b", "c", nil},
			},
			wantDelivered: map[string]int{"c": 1},
			wantDropped:   3,
		},
		{
			// Heal is per-pair, so a partial heal leaves the unnamed pairs
			// severed — the asymmetric topology mid-recovery.
			name: "partial heal restores only the named pair",
			setup: func(s *Sim) {
				s.Partition([]string{"a"}, []string{"b", "c"})
				s.Heal([]string{"a"}, []string{"b"})
			},
			sends: []send{
				{"a", "b", nil},
				{"b", "a", nil},
				{"a", "c", ErrNoRoute},
				{"c", "a", ErrNoRoute},
			},
			wantDelivered: map[string]int{"a": 1, "b": 1},
			wantDropped:   2,
		},
		{
			// SetLink replaces the whole Link struct, Down flag included, but
			// only for its own direction — the partition cut both.
			name: "SetLink overrides a partition one direction only",
			setup: func(s *Sim) {
				s.Partition([]string{"a"}, []string{"b"})
				s.SetLink("a", "b", Link{Latency: time.Millisecond})
			},
			sends: []send{
				{"a", "b", nil},
				{"b", "a", ErrNoRoute},
			},
			wantDelivered: map[string]int{"b": 1},
			wantDropped:   1,
		},
		{
			// A node's loopback pair {a,a} is never a cross-pair, so a
			// partitioned node still hears itself (self-delivery keeps group
			// multicast coherent during partitions).
			name:  "self-send survives partition",
			setup: func(s *Sim) { s.Partition([]string{"a"}, []string{"b", "c"}) },
			sends: []send{
				{"a", "a", nil},
			},
			wantDelivered: map[string]int{"a": 1},
		},
		{
			name:  "crashed sender fails fast",
			setup: func(s *Sim) { s.Crash("a") },
			sends: []send{
				{"a", "b", ErrCrashed},
				{"b", "c", nil},
			},
			wantDelivered: map[string]int{"c": 1},
			wantDropped:   1,
		},
		{
			// A send toward a crashed node is accepted (the sender cannot
			// know) and dropped on arrival.
			name:  "send to crashed node dropped on arrival",
			setup: func(s *Sim) { s.Crash("b") },
			sends: []send{
				{"a", "b", nil},
			},
			wantDelivered: map[string]int{},
			wantDropped:   1,
		},
		{
			name: "restart restores delivery",
			setup: func(s *Sim) {
				s.Crash("b")
				s.Restart("b")
			},
			sends: []send{
				{"a", "b", nil},
			},
			wantDelivered: map[string]int{"b": 1},
		},
		{
			// A handlerless destination is silent loss, accounted separately
			// from link drops.
			name:  "no handler is counted not delivered",
			setup: func(s *Sim) {},
			sends: []send{
				{"a", "mute", nil},
			},
			wantDelivered: map[string]int{},
			wantNoHandler: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1, Link{Latency: time.Millisecond})
			delivered := make(map[string]int)
			for _, id := range []string{"a", "b", "c"} {
				id := id
				s.MustAddNode(id).SetHandler(func(Msg) { delivered[id]++ })
			}
			s.MustAddNode("mute")
			tc.setup(s)
			for _, sd := range tc.sends {
				err := s.Node(sd.from).Send(sd.to, "x", 0)
				if !errors.Is(err, sd.wantErr) {
					t.Errorf("Send %s->%s = %v, want %v", sd.from, sd.to, err, sd.wantErr)
				}
			}
			s.Run()
			for id, want := range tc.wantDelivered {
				if delivered[id] != want {
					t.Errorf("delivered[%s] = %d, want %d", id, delivered[id], want)
				}
			}
			for id, got := range delivered {
				if tc.wantDelivered[id] == 0 && got != 0 {
					t.Errorf("unexpected delivery to %s (%d msgs)", id, got)
				}
			}
			sent, dropped := s.Stats()
			if sent != len(tc.sends) {
				t.Errorf("sent = %d, want %d (every Send attempt counts)", sent, len(tc.sends))
			}
			if dropped != tc.wantDropped {
				t.Errorf("dropped = %d, want %d", dropped, tc.wantDropped)
			}
			if s.DroppedNoHandler() != tc.wantNoHandler {
				t.Errorf("noHandler = %d, want %d", s.DroppedNoHandler(), tc.wantNoHandler)
			}
			totalDelivered := 0
			for _, n := range delivered {
				totalDelivered += n
			}
			if s.Delivered() != totalDelivered {
				t.Errorf("Delivered() = %d, handlers saw %d", s.Delivered(), totalDelivered)
			}
			if sent != s.Delivered()+dropped+s.DroppedNoHandler() {
				t.Errorf("ledger broken: sent %d != delivered %d + dropped %d + noHandler %d",
					sent, s.Delivered(), dropped, s.DroppedNoHandler())
			}
		})
	}
}

// TestDroppedNoHandlerUnderPartition checks that the two loss ledgers stay
// distinct across topology changes: a severed link charges dropped at send
// time, a missing handler charges noHandler at delivery time, and neither
// bleeds into the other.
func TestDroppedNoHandlerUnderPartition(t *testing.T) {
	s := New(1, Link{Latency: time.Millisecond})
	s.MustAddNode("a")
	s.MustAddNode("mute") // never installs a handler

	if err := s.Node("a").Send("mute", "one", 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.DroppedNoHandler() != 1 {
		t.Fatalf("noHandler = %d after handlerless delivery", s.DroppedNoHandler())
	}

	s.Partition([]string{"a"}, []string{"mute"})
	if err := s.Node("a").Send("mute", "two", 0); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("send across partition = %v", err)
	}
	s.Run()
	if s.DroppedNoHandler() != 1 {
		t.Errorf("noHandler = %d; a link drop must not be double-counted as a handler drop", s.DroppedNoHandler())
	}
	if _, dropped := s.Stats(); dropped != 1 {
		t.Errorf("dropped = %d, want 1 (the partitioned send)", dropped)
	}

	s.Heal([]string{"a"}, []string{"mute"})
	if err := s.Node("a").Send("mute", "three", 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.DroppedNoHandler() != 2 {
		t.Errorf("noHandler = %d after heal, want 2", s.DroppedNoHandler())
	}
	if s.Delivered() != 0 {
		t.Errorf("Delivered() = %d; nothing ever reached a handler", s.Delivered())
	}
}

// TestHealPreservesLinkParams: a partition cuts a pair without touching its
// link, so a tuned link keeps its latency across a partition and heal —
// unlike SetLink, which replaces the struct wholesale. Heal also clears the
// Down flag of a pair override between the groups, and only that flag.
func TestHealPreservesLinkParams(t *testing.T) {
	s := New(1, LANLink)
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	s.SetLink("a", "b", Link{Latency: 5 * time.Millisecond, Down: true})
	s.Partition([]string{"a"}, []string{"b"})
	s.Heal([]string{"a"}, []string{"b"})

	var at time.Duration
	b.SetHandler(func(Msg) { at = s.Now() })
	if err := s.Node("a").Send("b", "x", 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if at != 5*time.Millisecond {
		t.Errorf("delivery at %v, want 5ms (tuned latency lost across partition/heal)", at)
	}
}

// TestCrashDropsInFlight: messages already queued toward a node when it
// crashes are dropped at their arrival time; Restart does not resurrect
// them, only future traffic.
func TestCrashDropsInFlight(t *testing.T) {
	s := New(1, Link{Latency: 10 * time.Millisecond})
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	var got []string
	b.SetHandler(func(m Msg) { got = append(got, m.Payload.(string)) })

	if err := s.Node("a").Send("b", "doomed", 0); err != nil {
		t.Fatal(err)
	}
	s.At(time.Millisecond, func() { s.Crash("b") })
	s.At(20*time.Millisecond, func() {
		if !s.Crashed("b") {
			t.Error("Crashed(b) = false while down")
		}
		s.Restart("b")
		if s.Crashed("b") {
			t.Error("Crashed(b) = true after Restart")
		}
		if err := s.Node("a").Send("b", "fresh", 0); err != nil {
			t.Errorf("send after restart: %v", err)
		}
	})
	s.Run()
	if len(got) != 1 || got[0] != "fresh" {
		t.Errorf("got %v, want only the post-restart message", got)
	}
	sent, dropped := s.Stats()
	if sent != 2 || dropped != 1 || s.Delivered() != 1 {
		t.Errorf("ledger = %d sent %d dropped %d delivered, want 2/1/1", sent, dropped, s.Delivered())
	}
}

// TestReorderLetsLaterSendOvertake: the Reorder knob holds a message past the
// FIFO serialization point so a later send arrives first — the deterministic
// out-of-order path the chaos scenarios lean on.
func TestReorderLetsLaterSendOvertake(t *testing.T) {
	s := New(1, LANLink)
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	var got []string
	b.SetHandler(func(m Msg) { got = append(got, m.Payload.(string)) })

	// Reorder 1.0 always fires (Float64 is in [0,1)), so the hold is
	// deterministic regardless of seed.
	s.SetLink("a", "b", Link{Latency: time.Millisecond, Reorder: 1.0, ReorderDelay: 10 * time.Millisecond})
	if err := s.Node("a").Send("b", "held", 0); err != nil {
		t.Fatal(err)
	}
	s.SetLink("a", "b", Link{Latency: time.Millisecond})
	if err := s.Node("a").Send("b", "swift", 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	want := []string{"swift", "held"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("arrival order %v, want %v", got, want)
	}
	if s.Now() != 11*time.Millisecond {
		t.Errorf("final time %v, want 11ms (1ms latency + 10ms hold)", s.Now())
	}
}
