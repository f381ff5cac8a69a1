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

// TestOutboxPerformsInQueueOrder: a Do performs sends, fan-outs,
// deliveries and calls in the order they were queued, and effects a
// callback queues by re-entering its owner run in the same Do, after
// everything queued before them.
func TestOutboxPerformsInQueueOrder(t *testing.T) {
	var mu sync.Mutex
	var got []string
	ep := &sendRecorder{onSend: func(to string, payload any) { got = append(got, fmt.Sprintf("send %s %v", to, payload)) }}
	o := fabric.NewOutbox(&mu, ep, func(payload any, seq uint64) { got = append(got, fmt.Sprintf("deliver %v %d", payload, seq)) })

	o.Do(func() {
		o.Queue("a", "p1", 8)
		o.Deliver("d1", 1)
		o.Call(func() {
			got = append(got, "call")
			// Re-enter the owner, as a Multicast from inside a delivery does.
			o.Do(func() {
				o.Deliver("nested", 3)
				o.Queue("c", "p3", 8)
			})
			got = append(got, "nested Do returned")
		})
		o.QueueAll([]string{"a", "b"}, "p2", 8)
		o.Deliver("d2", 2)
	})

	want := []string{
		"send a p1",
		"deliver d1 1",
		"call",
		"nested Do returned",
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
		t.Fatal("Do returned with the lock held")
	}
}

// TestOutboxPerformsUnlocked: Do performs every kind of effect with the
// owner's mutex released, and a Do a callback runs from inside its owner
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
	o := fabric.NewOutbox(&mu, &sendRecorder{onSend: func(string, any) { check() }}, func(any, uint64) { check() })
	o.Do(func() {
		o.Queue("a", "p1", 8)
		o.QueueAll([]string{"a", "b"}, "p2", 8)
		o.Deliver("d1", 1)
		o.Call(check)
		o.Call(func() {
			check()
			// Re-enter the owner, as a Multicast from inside a delivery
			// does, unless the mutex is held: then Do would block forever.
			if mu.TryLock() {
				mu.Unlock()
				o.Do(func() { o.Queue("c", "p3", 8) })
			}
		})
	})
	if performed != 7 || locked != 0 {
		t.Fatalf("%d of %d effects performed with the owner's mutex held, want 7 performed and none held", locked, performed)
	}
	if !mu.TryLock() {
		t.Fatal("Do returned with the lock held")
	}
}

// TestOutboxConcurrentDosSerialise: two goroutines that each queue in a Do
// never perform at the same time, and every effect is performed once, in
// the order it was queued.
func TestOutboxConcurrentDosSerialise(t *testing.T) {
	const perGoroutine = 2000
	var (
		mu      sync.Mutex
		next    uint64 // the sequence number queued next, under mu
		busy    atomic.Bool
		last    uint64
		bad     atomic.Value
		perform = func(seq uint64) {
			if !busy.CompareAndSwap(false, true) {
				bad.CompareAndSwap(nil, "two Dos performed at once")
			}
			if seq != last+1 {
				bad.CompareAndSwap(nil, fmt.Sprintf("performed %d after %d", seq, last))
			}
			last = seq
			busy.Store(false)
		}
	)
	o := fabric.NewOutbox(&mu, &sendRecorder{}, func(_ any, seq uint64) { perform(seq) })
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perGoroutine {
				o.Do(func() {
					next++
					o.Deliver(nil, next)
				})
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

// TestOutboxDoDuringDoReturns: a Do entered on another goroutine while one
// is performing returns at once with the lock released, and the performing
// Do performs what it queued.
func TestOutboxDoDuringDoReturns(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	o := fabric.NewOutbox(&mu, &sendRecorder{}, func(_ any, seq uint64) { got = append(got, seq) })
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		o.Do(func() {
			o.Call(func() {
				close(entered)
				<-release
			})
		})
	}()
	<-entered

	returned := make(chan struct{})
	go func() {
		defer close(returned)
		o.Do(func() { o.Deliver(nil, 1) })
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("a Do entered during another Do did not return")
	}
	if !mu.TryLock() {
		t.Fatal("the nested Do returned with the lock held")
	}
	mu.Unlock()
	if len(got) != 0 {
		t.Fatalf("the nested Do performed %v itself while another Do was performing", got)
	}
	close(release)
	<-done
	if !slices.Equal(got, []uint64{1}) {
		t.Fatalf("the performing Do performed %v, want [1]", got)
	}
}

// TestOutboxAccessorDuringPerformReturns: an accessor's Do, which queues
// nothing, called from inside an effect its owner's Do is performing, reads
// the state and returns at once, and the performing Do goes on.
func TestOutboxAccessorDuringPerformReturns(t *testing.T) {
	var mu sync.Mutex
	state := 0
	var o *fabric.Outbox
	accessor := func() (n int) {
		o.Do(func() { n = state })
		return n
	}
	var got []int
	o = fabric.NewOutbox(&mu, &sendRecorder{}, func(any, uint64) { got = append(got, accessor()) })
	done := make(chan struct{})
	go func() {
		defer close(done)
		o.Do(func() {
			state = 1
			o.Deliver(nil, 0)
			o.Call(func() { o.Do(func() { state = 2 }) })
			o.Deliver(nil, 0)
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an accessor called from inside a performed effect did not return")
	}
	if !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("the accessor read %v, want [1 2]", got)
	}
}

// TestOutboxQueueOutsideDoPanics: every kind of effect queued outside a
// Do's function panics — before any Do, and from inside an effect a Do is
// performing, where the lock is released and nothing would perform it.
func TestOutboxQueueOutsideDoPanics(t *testing.T) {
	var mu sync.Mutex
	o := fabric.NewOutbox(&mu, &sendRecorder{}, func(any, uint64) {})
	queue := map[string]func(){
		"Queue":    func() { o.Queue("a", "p", 8) },
		"QueueAll": func() { o.QueueAll([]string{"a"}, "p", 8) },
		"Deliver":  func() { o.Deliver("d", 1) },
		"Call":     func() { o.Call(func() {}) },
	}
	panics := func(fn func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		fn()
		return false
	}
	for name, fn := range queue {
		if !panics(fn) {
			t.Errorf("%s outside Do did not panic", name)
		}
		var inEffect bool
		o.Do(func() { o.Call(func() { inEffect = panics(fn) }) })
		if !inEffect {
			t.Errorf("%s from inside a performed effect did not panic", name)
		}
	}
	if !mu.TryLock() {
		t.Fatal("the mutex is held after the panics")
	}
}

// TestOutboxSteadyStateAllocs: once a performed array has been kept as the
// spare, a Do that queues and performs allocates nothing.
func TestOutboxSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	var mu sync.Mutex
	sends, delivered := 0, 0
	o := fabric.NewOutbox(&mu, &sendRecorder{onSend: func(string, any) { sends++ }}, func(any, uint64) { delivered++ })
	payload := &struct{ n int }{}
	step := func() {
		o.Do(func() {
			o.Queue("peer", payload, 64)
			o.Deliver(payload, 1)
		})
	}
	step() // the first Do's array becomes the spare
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("a Queue+Deliver Do allocates %v objects, want 0", n)
	}
	if sends != 102 || delivered != 102 {
		t.Errorf("performed %d sends and %d deliveries, want 102 of each", sends, delivered)
	}
}
