package fabric_test

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fabric"
)

// sendRecorder is an Endpoint whose Send hands each message to onSend.
type sendRecorder struct{ onSend func(to string, payload any) }

func (r *sendRecorder) ID() string { return "self" }
func (r *sendRecorder) Send(to string, payload any, size int) error {
	if r.onSend != nil {
		r.onSend(to, payload)
	}
	return nil
}
func (r *sendRecorder) SetHandler(fabric.Handler) {}
func (r *sendRecorder) Close() error              { return nil }

// TestOutboxPerformsInQueueOrder: a drain performs sends, fan-outs,
// deliveries and calls in the order they were queued, and effects a
// callback queues by re-entering its owner run in the same drain, after
// everything queued before them.
func TestOutboxPerformsInQueueOrder(t *testing.T) {
	var mu sync.Mutex
	var got []string
	ep := &sendRecorder{onSend: func(to string, payload any) { got = append(got, fmt.Sprintf("send %s %v", to, payload)) }}
	o := fabric.NewOutbox(ep, func(payload any, seq uint64) { got = append(got, fmt.Sprintf("deliver %v %d", payload, seq)) })

	mu.Lock()
	o.Queue("a", "p1", 8)
	o.Deliver("d1", 1)
	o.Call(func() {
		got = append(got, "call")
		// Re-enter the owner, as a Multicast from inside a delivery does.
		mu.Lock()
		o.Deliver("nested", 3)
		o.Queue("c", "p3", 8)
		o.Drain(&mu)
		got = append(got, "nested drain returned")
	})
	o.QueueAll([]string{"a", "b"}, "p2", 8)
	o.Deliver("d2", 2)
	o.Drain(&mu)

	want := []string{
		"send a p1",
		"deliver d1 1",
		"call",
		"nested drain returned",
		"send a p2",
		"send b p2",
		"deliver d2 2",
		"deliver nested 3",
		"send c p3",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("performed\n%q\nwant\n%q", got, want)
	}
	if !mu.TryLock() {
		t.Fatal("Drain returned with the lock held")
	}
}

// TestOutboxPerformsUnlocked: Drain performs every kind of effect with the
// owner's mutex released, and a drain a callback runs from inside its owner
// does too. Group members and session owners send only through their
// outboxes, so this is what keeps their sends out from under their locks.
func TestOutboxPerformsUnlocked(t *testing.T) {
	var mu sync.Mutex
	performed, locked := 0, 0
	check := func() {
		performed++
		if mu.TryLock() {
			mu.Unlock()
		} else {
			locked++
		}
	}
	o := fabric.NewOutbox(&sendRecorder{onSend: func(string, any) { check() }}, func(any, uint64) { check() })
	mu.Lock()
	o.Queue("a", "p1", 8)
	o.QueueAll([]string{"a", "b"}, "p2", 8)
	o.Deliver("d1", 1)
	o.Call(check)
	o.Call(func() {
		check()
		// Re-enter the owner, as a Multicast from inside a delivery does.
		if mu.TryLock() {
			o.Queue("c", "p3", 8)
			o.Drain(&mu)
		}
	})
	o.Drain(&mu)
	if performed != 7 || locked != 0 {
		t.Fatalf("%d of %d effects performed with the owner's mutex held, want 7 performed and none held", locked, performed)
	}
	if !mu.TryLock() {
		t.Fatal("Drain returned with the lock held")
	}
}

// TestOutboxConcurrentDrainsSerialise: two goroutines that each queue under
// the owner's lock and drain never perform at the same time, and every
// effect is performed once, in the order it was queued.
func TestOutboxConcurrentDrainsSerialise(t *testing.T) {
	const perGoroutine = 2000
	var (
		mu      sync.Mutex
		next    uint64 // the sequence number queued next, under mu
		busy    atomic.Bool
		last    uint64
		bad     atomic.Value
		perform = func(seq uint64) {
			if !busy.CompareAndSwap(false, true) {
				bad.CompareAndSwap(nil, "two drains performed at once")
			}
			if seq != last+1 {
				bad.CompareAndSwap(nil, fmt.Sprintf("performed %d after %d", seq, last))
			}
			last = seq
			busy.Store(false)
		}
	)
	o := fabric.NewOutbox(&sendRecorder{}, func(_ any, seq uint64) { perform(seq) })
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perGoroutine {
				mu.Lock()
				next++
				o.Deliver(nil, next)
				o.Drain(&mu)
			}
		}()
	}
	wg.Wait()
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	if last != 2*perGoroutine {
		t.Fatalf("last performed %d, want %d", last, 2*perGoroutine)
	}
}

// TestOutboxDrainDuringDrainReturns: a drain entered on another goroutine
// while one is performing returns at once with the lock released, and the
// running drain performs what it queued.
func TestOutboxDrainDuringDrainReturns(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	o := fabric.NewOutbox(&sendRecorder{}, func(_ any, seq uint64) { got = append(got, seq) })
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	mu.Lock()
	o.Call(func() {
		close(entered)
		<-release
	})
	go func() {
		defer close(done)
		o.Drain(&mu)
	}()
	<-entered

	returned := make(chan struct{})
	go func() {
		defer close(returned)
		mu.Lock()
		o.Deliver(nil, 1)
		o.Drain(&mu)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("a drain entered during another drain did not return")
	}
	if !mu.TryLock() {
		t.Fatal("the nested drain returned with the lock held")
	}
	mu.Unlock()
	if len(got) != 0 {
		t.Fatalf("the nested drain performed %v itself while another drain was running", got)
	}
	close(release)
	<-done
	if !slices.Equal(got, []uint64{1}) {
		t.Fatalf("the running drain performed %v, want [1]", got)
	}
}

// TestOutboxSteadyStateAllocs: once a drained array has been kept as the
// spare, a queue-and-drain step allocates nothing.
func TestOutboxSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var mu sync.Mutex
	sends, delivered := 0, 0
	o := fabric.NewOutbox(&sendRecorder{onSend: func(string, any) { sends++ }}, func(any, uint64) { delivered++ })
	payload := &struct{ n int }{}
	step := func() {
		mu.Lock()
		o.Queue("peer", payload, 64)
		o.Deliver(payload, 1)
		o.Drain(&mu)
	}
	step() // the first drain's array becomes the spare
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("a Queue+Deliver+Drain step allocates %v objects, want 0", n)
	}
	if sends != 102 || delivered != 102 {
		t.Errorf("performed %d sends and %d deliveries, want 102 of each", sends, delivered)
	}
}
