package netsim

import (
	"testing"
	"time"
)

func TestSelfSend(t *testing.T) {
	s := New(1, Link{Latency: time.Millisecond})
	n := s.MustAddNode("a")
	got := 0
	n.SetHandler(func(m Msg) {
		if m.From != "a" || m.To != "a" {
			t.Errorf("self msg = %+v", m)
		}
		got++
	})
	if err := n.Send("a", "loopback", 8); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got != 1 {
		t.Errorf("self-send delivered %d", got)
	}
}

func TestEveryStopsWhenFalse(t *testing.T) {
	s := New(1, LANLink)
	runs := 0
	s.Every(time.Second, func() bool {
		runs++
		return false
	})
	s.Run()
	if runs != 1 {
		t.Errorf("Every ran %d times after returning false", runs)
	}
	if s.Pending() != 0 {
		t.Errorf("pending = %d", s.Pending())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1, LANLink)
	ran := false
	s.At(-time.Second, func() { ran = true })
	s.Run()
	if !ran {
		t.Error("negative-delay event never ran")
	}
	if s.Now() != 0 {
		t.Errorf("clock = %v", s.Now())
	}
}

func TestSetLinkUpdatesExisting(t *testing.T) {
	s := New(1, LANLink)
	s.MustAddNode("a")
	b := s.MustAddNode("b")
	var at time.Duration
	b.SetHandler(func(Msg) { at = s.Now() })
	s.SetLink("a", "b", Link{Latency: 5 * time.Millisecond})
	s.SetLink("a", "b", Link{Latency: 50 * time.Millisecond}) // replace
	s.Node("a").Send("b", "x", 0)
	s.Run()
	if at != 50*time.Millisecond {
		t.Errorf("delivered at %v, link update ignored", at)
	}
}

func TestLinkBetweenDefault(t *testing.T) {
	s := New(1, Link{Latency: 123 * time.Millisecond})
	if got := s.LinkBetween("x", "y"); got.Latency != 123*time.Millisecond {
		t.Errorf("default link = %+v", got)
	}
}

func TestRunUntilIdempotentOnEmptyQueue(t *testing.T) {
	s := New(1, LANLink)
	s.RunUntil(time.Second)
	s.RunUntil(500 * time.Millisecond) // earlier deadline: clock must not go back
	if s.Now() != time.Second {
		t.Errorf("clock went backwards: %v", s.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	s := New(1, LANLink)
	if s.Step() {
		t.Error("Step on empty queue should report false")
	}
}
