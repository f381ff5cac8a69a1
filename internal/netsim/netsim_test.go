package netsim

import (
	"errors"
	"testing"
	"time"
)

func TestAddNodeDuplicate(t *testing.T) {
	s := New(1, LANLink)
	if _, err := s.AddNode("a"); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if _, err := s.AddNode("a"); err == nil {
		t.Fatal("duplicate AddNode should fail")
	}
}

func TestSendUnknownNode(t *testing.T) {
	s := New(1, LANLink)
	s.MustAddNode("a")
	if err := s.Node("a").Send("ghost", "x", 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Send to unknown = %v, want ErrUnknownNode", err)
	}
	if err := s.SendID(0, 7, "x", 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SendID to unknown = %v, want ErrUnknownNode", err)
	}
	if err := s.SendID(7, 0, "x", 0); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("SendID from unknown = %v, want ErrUnknownNode", err)
	}
}

func TestDeliveryLatency(t *testing.T) {
	s := New(1, Link{Latency: 10 * time.Millisecond})
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	var deliveredAt time.Duration
	var got Msg
	b.SetHandler(func(m Msg) {
		deliveredAt = s.Now()
		got = m
	})
	if err := s.Node("a").Send("b", "hello", 100); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if deliveredAt != 10*time.Millisecond {
		t.Errorf("delivered at %v, want 10ms", deliveredAt)
	}
	if got.Payload != "hello" || got.From != "a" || got.To != "b" {
		t.Errorf("msg = %+v", got)
	}
	if got.Sent != 0 {
		t.Errorf("Sent = %v, want 0", got.Sent)
	}
}

func TestFIFOPerLink(t *testing.T) {
	s := New(42, Link{Latency: 5 * time.Millisecond, Bandwidth: 1000})
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	var order []int
	b.SetHandler(func(m Msg) { order = append(order, m.Payload.(int)) })
	for i := 0; i < 5; i++ {
		if err := s.Node("a").Send("b", i, 500); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("delivered %d, want 5", len(order))
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 B/s, two 500-byte messages: second should arrive ~0.5s after first.
	s := New(1, Link{Latency: 0, Bandwidth: 1000})
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	var times []time.Duration
	b.SetHandler(func(m Msg) { times = append(times, s.Now()) })
	s.Node("a").Send("b", 1, 500)
	s.Node("a").Send("b", 2, 500)
	s.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[0] != 500*time.Millisecond || times[1] != time.Second {
		t.Errorf("delivery times %v, want [500ms 1s]", times)
	}
}

func TestLoss(t *testing.T) {
	s := New(7, Link{Loss: 1.0})
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	delivered := 0
	b.SetHandler(func(Msg) { delivered++ })
	for i := 0; i < 10; i++ {
		if err := s.Node("a").Send("b", i, 0); err != nil {
			t.Fatalf("lossy send should not error: %v", err)
		}
	}
	s.Run()
	if delivered != 0 {
		t.Errorf("delivered %d on 100%% lossy link", delivered)
	}
	sent, dropped := s.Stats()
	if sent != 10 || dropped != 10 {
		t.Errorf("stats = %d sent %d dropped", sent, dropped)
	}
}

func TestLinkDown(t *testing.T) {
	s := New(1, LANLink)
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	delivered := 0
	b.SetHandler(func(Msg) { delivered++ })
	s.Partition([]string{"a"}, []string{"b"})
	if err := s.Node("a").Send("b", "x", 0); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Send over down link = %v, want ErrNoRoute", err)
	}
	s.Heal([]string{"a"}, []string{"b"})
	if err := s.Node("a").Send("b", "x", 0); err != nil {
		t.Errorf("Send after restore: %v", err)
	}
	s.Run()
	if delivered != 1 {
		t.Errorf("delivered %d, want 1", delivered)
	}
}

func TestPartitionHeal(t *testing.T) {
	s := New(1, LANLink)
	for _, id := range []string{"a", "b", "c"} {
		s.MustAddNode(id)
	}
	s.Partition([]string{"a"}, []string{"b", "c"})
	if err := s.Node("a").Send("b", "x", 0); !errors.Is(err, ErrNoRoute) {
		t.Error("a->b should be severed")
	}
	if err := s.Node("b").Send("c", "x", 0); err != nil {
		t.Errorf("b->c inside partition should work: %v", err)
	}
	s.Heal([]string{"a"}, []string{"b", "c"})
	if err := s.Node("a").Send("b", "x", 0); err != nil {
		t.Errorf("after heal: %v", err)
	}
}

func TestAtOrderingAndEvery(t *testing.T) {
	s := New(1, LANLink)
	var seq []string
	s.At(2*time.Millisecond, func() { seq = append(seq, "late") })
	s.At(1*time.Millisecond, func() { seq = append(seq, "early") })
	s.At(1*time.Millisecond, func() { seq = append(seq, "early2") })
	count := 0
	s.Every(10*time.Millisecond, func() bool {
		count++
		return count < 3
	})
	end := s.Run()
	if len(seq) != 3 || seq[0] != "early" || seq[1] != "early2" || seq[2] != "late" {
		t.Errorf("seq = %v", seq)
	}
	if count != 3 {
		t.Errorf("Every ran %d times, want 3", count)
	}
	if end != 30*time.Millisecond {
		t.Errorf("final time %v, want 30ms", end)
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1, LANLink)
	ran := 0
	s.At(5*time.Millisecond, func() { ran++ })
	s.At(15*time.Millisecond, func() { ran++ })
	s.RunUntil(10 * time.Millisecond)
	if ran != 1 {
		t.Errorf("ran = %d, want 1", ran)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now = %v, want 10ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New(99, Link{Latency: time.Millisecond, Jitter: 5 * time.Millisecond, Loss: 0.2})
		s.MustAddNode("a")
		b := s.MustAddNode("b")
		var times []time.Duration
		b.SetHandler(func(Msg) { times = append(times, s.Now()) })
		for i := 0; i < 50; i++ {
			s.Node("a").Send("b", i, 10)
		}
		s.Run()
		return times
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("different delivery counts: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, t1[i], t2[i])
		}
	}
}

func TestConnLevelString(t *testing.T) {
	if Disconnected.String() != "disconnected" || Partial.String() != "partial" || Full.String() != "full" {
		t.Error("ConnLevel.String names wrong")
	}
}

func BenchmarkSimThroughput(b *testing.B) {
	s := New(1, LANLink)
	s.MustAddNode("a")
	dst := s.MustAddNode("b")
	dst.SetHandler(func(Msg) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Node("a").Send("b", i, 64)
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
}
