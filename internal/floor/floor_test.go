package floor

import (
	"errors"
	"testing"
	"time"
)

var members = []string{"alice", "bob", "carol"}

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func newCtl(t *testing.T, p Policy, opts Options) (*Controller, *[]Event) {
	t.Helper()
	var events []Event
	opts.Emit = func(e Event) { events = append(events, e) }
	c, err := NewController(p, members, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, &events
}

func TestFreeFloorFIFO(t *testing.T) {
	c, _ := newCtl(t, FreeFloor, Options{})
	got, err := c.Request("alice", sec(0))
	if err != nil || !got {
		t.Fatalf("first request = %v, %v", got, err)
	}
	if c.Holder() != "alice" {
		t.Fatalf("holder = %q", c.Holder())
	}
	got, err = c.Request("bob", sec(1))
	if err != nil || got {
		t.Fatalf("busy request = %v, %v", got, err)
	}
	got, err = c.Request("carol", sec(2))
	if err != nil || got {
		t.Fatalf("busy request = %v, %v", got, err)
	}
	if err := c.Release("alice", sec(3)); err != nil {
		t.Fatal(err)
	}
	if c.Holder() != "bob" {
		t.Fatalf("holder after release = %q, want bob (FIFO)", c.Holder())
	}
	c.Release("bob", sec(4))
	if c.Holder() != "carol" {
		t.Fatalf("holder = %q", c.Holder())
	}
	st := c.Stats()
	if st.Grants != 3 || st.Requests != 3 {
		t.Errorf("stats = %+v", st)
	}
	// Waits: alice 0, bob 2s, carol 2s => mean 4/3s.
	if st.TotalWait != 4*time.Second {
		t.Errorf("TotalWait = %v", st.TotalWait)
	}
}

func TestRequestValidation(t *testing.T) {
	c, _ := newCtl(t, FreeFloor, Options{})
	if _, err := c.Request("stranger", 0); !errors.Is(err, ErrNotParticipant) {
		t.Errorf("stranger = %v", err)
	}
	c.Request("alice", 0)
	if _, err := c.Request("alice", 0); !errors.Is(err, ErrAlreadyHolder) {
		t.Errorf("holder re-request = %v", err)
	}
	c.Request("bob", 0)
	if got, err := c.Request("bob", 0); err != nil || got {
		t.Errorf("duplicate queue = %v, %v", got, err)
	}
	if c.QueueLength() != 1 {
		t.Errorf("queue = %d", c.QueueLength())
	}
	if err := c.Release("bob", 0); !errors.Is(err, ErrNotHolder) {
		t.Errorf("non-holder release = %v", err)
	}
}

func TestChairPolicy(t *testing.T) {
	c, _ := newCtl(t, Chair, Options{Chair: "alice"})
	// Even with the floor free, requests wait for the chair.
	got, err := c.Request("bob", sec(0))
	if err != nil || got {
		t.Fatalf("request under chair = %v, %v", got, err)
	}
	if c.Holder() != "" {
		t.Fatal("floor should stay free until chair grants")
	}
	if err := c.Grant("bob", "bob", sec(1)); !errors.Is(err, ErrNotChair) {
		t.Fatalf("non-chair grant = %v", err)
	}
	if err := c.Grant("alice", "bob", sec(1)); err != nil {
		t.Fatal(err)
	}
	if c.Holder() != "bob" {
		t.Fatalf("holder = %q", c.Holder())
	}
	// Granting someone who never asked fails (once the floor is free).
	if err := c.Release("bob", sec(4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Grant("alice", "carol", sec(5)); !errors.Is(err, ErrNoRequest) {
		t.Errorf("grant without request = %v", err)
	}
}

func TestChairRequiresChair(t *testing.T) {
	if _, err := NewController(Chair, members, Options{}); err == nil {
		t.Error("chair policy without chair should fail")
	}
	if _, err := NewController(Chair, members, Options{Chair: "zelda"}); err == nil {
		t.Error("non-participant chair should fail")
	}
}

func TestRoundRobinRotation(t *testing.T) {
	c, _ := newCtl(t, RoundRobin, Options{})
	c.Request("carol", sec(0)) // floor free: granted, rrIndex at carol (last member)
	c.Request("bob", sec(1))
	c.Request("alice", sec(1))
	// On release rotation scans from carol: alice is next circularly.
	c.Release("carol", sec(2))
	if c.Holder() != "alice" {
		t.Fatalf("holder = %q, want alice (circular from carol)", c.Holder())
	}
	c.Request("carol", sec(3))
	c.Release("alice", sec(4))
	if c.Holder() != "bob" {
		t.Fatalf("holder = %q, want bob", c.Holder())
	}
	c.Release("bob", sec(5))
	if c.Holder() != "carol" {
		t.Fatalf("holder = %q, want carol", c.Holder())
	}
}

func TestNegotiateHolderNotifiedAndYields(t *testing.T) {
	c, events := newCtl(t, Negotiate, Options{})
	c.Request("alice", sec(0))
	c.Request("bob", sec(1))
	// Alice was told bob wants the floor.
	var holderNotified bool
	for _, e := range *events {
		if e.Type == EvRequested && e.User == "alice" && e.By == "bob" {
			holderNotified = true
		}
	}
	if !holderNotified {
		t.Fatal("holder not notified of pending request")
	}
	// Alice yields, and the floor goes to bob.
	if err := c.Release("alice", sec(2)); err != nil {
		t.Fatal(err)
	}
	if c.Holder() != "bob" || c.QueueLength() != 0 {
		t.Errorf("holder = %q, queue = %d", c.Holder(), c.QueueLength())
	}
}

func TestPolicyGating(t *testing.T) {
	c, _ := newCtl(t, FreeFloor, Options{})
	if err := c.Grant("alice", "bob", 0); err == nil {
		t.Error("grant under free floor should fail")
	}
}

func TestEnumStrings(t *testing.T) {
	if FreeFloor.String() != "free-floor" || Chair.String() != "chair" ||
		RoundRobin.String() != "round-robin" || Negotiate.String() != "negotiate" {
		t.Error("policy names")
	}
	if EvRequested.String() != "requested" {
		t.Error("event names")
	}
}

func BenchmarkRequestReleaseCycle(b *testing.B) {
	c, _ := NewController(FreeFloor, members, Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i)
		c.Request("alice", now)
		c.Release("alice", now)
	}
}

func TestStatsMeanWaitAndUnknownStrings(t *testing.T) {
	if (Stats{}).MeanWait() != 0 {
		t.Error("zero stats mean wait")
	}
	s := Stats{Grants: 2, TotalWait: 10 * time.Second}
	if s.MeanWait() != 5*time.Second {
		t.Errorf("MeanWait = %v", s.MeanWait())
	}
	if Policy(99).String() == "" || EventType(99).String() == "" {
		t.Error("unknown enum strings should render")
	}
	if EvGranted.String() != "granted" || EvReleased.String() != "released" {
		t.Error("event names")
	}
}
