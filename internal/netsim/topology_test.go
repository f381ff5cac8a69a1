package netsim

import (
	"fmt"
	"testing"
	"time"
)

// wallClock reads the real clock — test-only, for measuring simulator
// throughput (the simulator itself never reads wall time).
func wallClock() time.Duration { return time.Duration(time.Now().UnixNano()) }

// --- Every stops when its callback says so (a never-false callback would
// make Run() non-terminating, so every program's ticker checks a deadline) ---

func TestEveryStopsAtDeadline(t *testing.T) {
	s := New(1, LocalLink)
	ticks := 0
	s.Every(10*time.Millisecond, func() bool {
		ticks++
		return s.Now() < 50*time.Millisecond
	})
	end := s.Run() // must terminate
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5 (at 10..50ms)", ticks)
	}
	if end != 50*time.Millisecond || s.Pending() != 0 {
		t.Fatalf("end = %v with %d pending, want 50ms and none", end, s.Pending())
	}
}

// TestEveryDeadlineTieStopsTick: a deadline event scheduled before the
// ticker runs first at their shared time, so the tick at the deadline sees it.
func TestEveryDeadlineTieStopsTick(t *testing.T) {
	s := New(1, LocalLink)
	stop, ticks := false, 0
	s.At(30*time.Millisecond, func() { stop = true })
	s.Every(10*time.Millisecond, func() bool {
		if stop {
			return false
		}
		ticks++
		return true
	})
	end := s.Run()
	if ticks != 2 || end != 30*time.Millisecond {
		t.Fatalf("ticks = %d, end = %v; want 2 (10ms, 20ms) and 30ms", ticks, end)
	}
}

// TestEveryStopsOnFlagBetweenTicks: a stop set by another event between
// ticks takes effect at the next tick, which schedules nothing more.
func TestEveryStopsOnFlagBetweenTicks(t *testing.T) {
	s := New(1, LocalLink)
	stop, ticks := false, 0
	s.Every(5*time.Millisecond, func() bool {
		if stop {
			return false
		}
		ticks++
		return true
	})
	s.At(12*time.Millisecond, func() { stop = true })
	end := s.Run()
	if ticks != 2 || end != 15*time.Millisecond || s.Pending() != 0 {
		t.Fatalf("ticks = %d, end = %v, pending = %d; want 2 (5ms, 10ms), 15ms, 0",
			ticks, end, s.Pending())
	}
}

// --- RunUntil deadline ties (satellite) ---

func TestRunUntilDeadlineTie(t *testing.T) {
	s := New(1, LocalLink)
	var fired []string
	s.At(10*time.Millisecond, func() { fired = append(fired, "at-deadline-1") })
	s.At(10*time.Millisecond, func() { fired = append(fired, "at-deadline-2") })
	s.At(10*time.Millisecond+1, func() { fired = append(fired, "after") })
	s.RunUntil(10 * time.Millisecond)
	if len(fired) != 2 || fired[0] != "at-deadline-1" || fired[1] != "at-deadline-2" {
		t.Fatalf("fired = %v, want both at-deadline events in order", fired)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (the after-deadline event)", s.Pending())
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("now = %v, want exactly the deadline", s.Now())
	}
}

// --- bandwidth FIFO serialization across partition/heal cycles (satellite) ---

func TestBusyUntilSurvivesPartitionHeal(t *testing.T) {
	s := New(1, Link{Latency: 0, Bandwidth: 1000}) // 1000 B/s, zero latency
	s.MustAddNode("a")
	s.MustAddNode("b")
	var arrivals []time.Duration
	s.Node("b").SetHandler(func(m Msg) { arrivals = append(arrivals, s.Now()) })

	// First 500B message occupies the wire until 500ms.
	if err := s.Node("a").Send("b", nil, 500); err != nil {
		t.Fatal(err)
	}
	if got := s.BusyUntil("a", "b"); got != 500*time.Millisecond {
		t.Fatalf("busyUntil = %v, want 500ms", got)
	}

	// A partition/heal cycle must not reset the serialization point.
	s.Partition([]string{"a"}, []string{"b"})
	if err := s.Node("a").Send("b", nil, 500); err == nil {
		t.Fatal("send over downed link succeeded")
	}
	s.Heal([]string{"a"}, []string{"b"})
	if got := s.BusyUntil("a", "b"); got != 500*time.Millisecond {
		t.Fatalf("busyUntil after down/heal = %v, want 500ms", got)
	}

	// Second message queues behind the first: arrives at 1s, not 500ms.
	if err := s.Node("a").Send("b", nil, 500); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(arrivals) != 2 || arrivals[0] != 500*time.Millisecond || arrivals[1] != 1000*time.Millisecond {
		t.Fatalf("arrivals = %v, want [500ms 1s]", arrivals)
	}
}

// --- three-tier link resolution ---

func TestLinkResolutionTiers(t *testing.T) {
	s := New(1, Link{Latency: 7 * time.Millisecond}) // tier 3
	east := s.Region("east")
	west := s.Region("west")
	s.SetRegionLink(east, east, Link{Latency: 1 * time.Millisecond})
	s.SetRegionBiLink(east, west, Link{Latency: 40 * time.Millisecond})
	s.MustAddNodeAt(east, "e1")
	s.MustAddNodeAt(east, "e2")
	s.MustAddNodeAt(west, "w1")
	s.MustAddNodeAt(west, "w2")
	s.SetLink("e1", "w1", Link{Latency: 3 * time.Millisecond}) // tier 1

	cases := []struct {
		from, to string
		want     time.Duration
	}{
		{"e1", "w1", 3 * time.Millisecond},  // pair override wins
		{"w1", "e1", 40 * time.Millisecond}, // override is directional
		{"e1", "e2", 1 * time.Millisecond},  // intra-region class
		{"e2", "w2", 40 * time.Millisecond}, // cross-region class
		{"w1", "w2", 7 * time.Millisecond},  // west-west unset: default
	}
	for _, c := range cases {
		if got := s.LinkBetween(c.from, c.to).Latency; got != c.want {
			t.Errorf("LinkBetween(%s,%s).Latency = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := s.RegionName(west); got != "west" {
		t.Errorf("RegionName = %q", got)
	}
	if got := s.Region("east"); got != east {
		t.Errorf("Region(east) created a duplicate: %d vs %d", got, east)
	}
}

func TestRegionLinkDelivery(t *testing.T) {
	s := New(1, LocalLink)
	east := s.Region("east")
	west := s.Region("west")
	s.SetRegionBiLink(east, west, Link{Latency: 40 * time.Millisecond})
	s.MustAddNodeAt(east, "e1")
	s.MustAddNodeAt(west, "w1")
	var at time.Duration
	s.Node("w1").SetHandler(func(m Msg) { at = s.Now() })
	if err := s.Node("e1").Send("w1", "hi", 0); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if at != 40*time.Millisecond {
		t.Fatalf("delivered at %v, want 40ms (region class latency)", at)
	}
}

// --- cut-set partition semantics ---

func TestPartitionCutCount(t *testing.T) {
	s := New(1, LocalLink)
	for _, id := range []string{"a", "b", "c", "d"} {
		s.MustAddNode(id)
	}
	s.Partition([]string{"a", "b"}, []string{"c", "d"})
	if s.Cuts() != 2 {
		t.Fatalf("cuts = %d, want 2 (one per direction)", s.Cuts())
	}
	s.Heal([]string{"a", "b"}, []string{"c", "d"})
	if s.Cuts() != 0 {
		t.Fatalf("cuts = %d after full heal, want 0", s.Cuts())
	}
}

func TestPartitionDoesNotAffectLaterNodes(t *testing.T) {
	s := New(1, LocalLink)
	s.MustAddNode("a")
	s.MustAddNode("b")
	s.Partition([]string{"a"}, []string{"b"})
	s.MustAddNode("c") // registered after the cut was built
	got := 0
	s.MustAddNode("d").SetHandler(func(m Msg) { got++ })
	if err := s.Node("c").Send("d", nil, 0); err != nil {
		t.Fatalf("send between post-partition nodes: %v", err)
	}
	if err := s.Node("a").Send("b", nil, 0); err == nil {
		t.Fatal("partitioned pair delivered")
	}
	s.Run()
	if got != 1 {
		t.Fatalf("delivered = %d, want 1", got)
	}
}

func TestPartitionUnknownNamesSkipped(t *testing.T) {
	s := New(1, LocalLink)
	s.MustAddNode("a")
	s.MustAddNode("b")
	s.Partition([]string{"a", "ghost"}, []string{"b"})
	if err := s.Node("a").Send("b", nil, 0); err == nil {
		t.Fatal("a->b should be severed")
	}
	// A partition naming only unknown nodes is a no-op, not a panic.
	s.Partition([]string{"ghost"}, []string{"phantom"})
	s.Heal([]string{"ghost"}, []string{"phantom"})
}

// --- allocation budgets (acceptance: Partition no longer O(|A|×|B|)) ---

func TestPartitionAllocBudget(t *testing.T) {
	const n = 10_000
	s := New(1, LANLink)
	a := make([]string, 0, n/2)
	b := make([]string, 0, n/2)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%05d", i)
		s.MustAddNode(id)
		if i < n/2 {
			a = append(a, id)
		} else {
			b = append(b, id)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		s.Partition(a, b)
		s.Heal(a, b)
	})
	// The flat model performed |A|×|B| = 25M map inserts here. The cut-set
	// model allocates a handful of bitsets per mutation; leave slack for
	// incidental growth but stay orders of magnitude below per-pair.
	if allocs > 64 {
		t.Fatalf("Partition+Heal of 2x5k allocated %.0f objects/op, budget 64", allocs)
	}
	t.Logf("Partition+Heal 2x5k: %.1f allocs/op", allocs)
}

// TestSendSteadyStateAllocBudget: a steady-state send+deliver cycle
// allocates nothing through either entry point, Node.Send and Sim.SendID,
// and a send while an unrelated cut is active (cutsBlock testing the cut's
// node sets) allocates nothing either: events are pooled and delivery
// dispatch is typed. The cut case runs last and keeps its cut.
func TestSendSteadyStateAllocBudget(t *testing.T) {
	s := New(1, Link{Latency: time.Millisecond, Bandwidth: 1_250_000})
	a := s.MustAddNode("a")
	s.MustAddNode("b").SetHandler(func(m Msg) {})
	s.MustAddNode("c")
	s.MustAddNode("d")
	ha, hb := a.Handle(), s.Node("b").Handle()
	for _, c := range []struct {
		name string
		send func() error
		cut  bool
	}{
		{"Node.Send", func() error { return a.Send("b", nil, 64) }, false},
		{"Sim.SendID", func() error { return s.SendID(ha, hb, nil, 64) }, false},
		{"Node.Send past an unrelated cut", func() error { return a.Send("b", nil, 64) }, true},
	} {
		if c.cut {
			s.Partition([]string{"c"}, []string{"d"})
		}
		// Warm the event pool and the pairBusy entry.
		for i := 0; i < 64; i++ {
			_ = c.send()
		}
		s.Run()
		allocs := testing.AllocsPerRun(1000, func() {
			if err := c.send(); err != nil {
				t.Fatal(err)
			}
			s.Run()
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state send+deliver allocated %.2f objects/op, want 0", c.name, allocs)
		}
	}
}

// --- scale acceptance: 10k-node two-region world ---

// tenKWorld builds a 10k-node two-region topology with LAN intra-region
// classes and a WAN cross-region class, returning the node handles.
func tenKWorld(tb testing.TB, nodes int) (*Sim, []NodeID, []string) {
	s := New(42, LANLink)
	east := s.Region("east")
	west := s.Region("west")
	s.SetRegionLink(east, east, LANLink)
	s.SetRegionLink(west, west, LANLink)
	s.SetRegionBiLink(east, west, WANLink)
	ids := make([]string, nodes)
	handles := make([]NodeID, nodes)
	for i := 0; i < nodes; i++ {
		r := east
		if i >= nodes/2 {
			r = west
		}
		ids[i] = fmt.Sprintf("n%05d", i)
		handles[i] = s.MustAddNodeAt(r, ids[i]).Handle()
	}
	return s, handles, ids
}

func TestTenKWorldPartitionsAndDrains(t *testing.T) {
	nodes, events := 10_000, 1_000_000
	if raceEnabled || testing.Short() {
		// The race detector multiplies the per-event cost ~10x; the scale
		// acceptance number is measured without it (see BenchmarkNetsimScale
		// and the netsim_scale_* rows in the checked-in BENCH json).
		nodes, events = 1_000, 100_000
	}
	start := wallClock()
	s, handles, ids := tenKWorld(t, nodes)
	delivered := 0
	for _, h := range handles {
		s.nodes[h].handler = func(m Msg) { delivered++ }
	}
	s.Partition(ids[:nodes/2], ids[nodes/2:])
	s.Heal(ids[:nodes/2], ids[nodes/2:])
	sent := 0
	for i := 0; i < events; i++ {
		from := handles[i%nodes]
		// Mostly ring traffic within the region, every 16th send crossing
		// the WAN, so the pairBusy table stays O(nodes), not O(events).
		var to NodeID
		if i%16 == 0 {
			to = handles[(i%nodes+nodes/2)%nodes]
		} else {
			to = handles[(i%nodes+1)%nodes]
		}
		if err := s.SendID(from, to, nil, 64); err != nil {
			t.Fatal(err)
		}
		sent++
		if i%4096 == 4095 {
			s.Run()
		}
	}
	s.Run()
	elapsed := wallClock() - start
	if delivered != sent {
		t.Fatalf("delivered %d of %d", delivered, sent)
	}
	if elapsed > 15*time.Second {
		t.Fatalf("%d-node world took %v to construct, partition and drain %d events; want single-digit seconds", nodes, elapsed, events)
	}
	t.Logf("%d nodes, %d events: %v (%.0f events/sec)", nodes, events, elapsed, float64(sent)/elapsed.Seconds())
}
