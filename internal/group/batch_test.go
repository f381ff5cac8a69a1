package group

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// newBatchRig wires n members over a simulated network with the given
// ordering and batch configuration.
func newBatchRig(t testing.TB, n int, ord Ordering, batch BatchConfig) *rig {
	t.Helper()
	r := &rig{
		sim:     netsim.New(1, netsim.LANLink),
		members: make(map[string]*Member),
		deliv:   make(map[string][]Delivery),
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("m%02d", i)
		r.ids = append(r.ids, id)
		node := r.sim.MustAddNode(id)
		m, err := NewMember(Config{
			Endpoint: fabric.FromSim(node),
			Timer:    TimerFunc(func(d time.Duration, fn func()) { r.sim.At(d, fn) }),
			Ordering: ord,
			Batch:    batch,
			Deliver:  func(d Delivery) { r.deliv[id] = append(r.deliv[id], d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		r.members[id] = m
	}
	v := NewView(1, r.ids)
	for _, m := range r.members {
		m.InstallView(v)
	}
	return r
}

// checkTotalAgreement asserts every member delivered the same gapless
// global sequence 1..want with identical bodies.
func checkTotalAgreement(t *testing.T, r *rig, want int) {
	t.Helper()
	ref := r.deliv[r.ids[0]]
	if len(ref) != want {
		t.Fatalf("member %s delivered %d messages, want %d", r.ids[0], len(ref), want)
	}
	for i, d := range ref {
		if d.Seq != uint64(i+1) {
			t.Fatalf("member %s delivery %d has seq %d, want %d", r.ids[0], i, d.Seq, i+1)
		}
	}
	for _, id := range r.ids[1:] {
		got := r.deliv[id]
		if len(got) != want {
			t.Fatalf("member %s delivered %d messages, want %d", id, len(got), want)
		}
		for i := range got {
			if got[i].Seq != ref[i].Seq || got[i].From != ref[i].From || fmt.Sprint(got[i].Body) != fmt.Sprint(ref[i].Body) {
				t.Fatalf("member %s delivery %d = %v/%v, disagrees with %s's %v/%v",
					id, i, got[i].From, got[i].Body, r.ids[0], ref[i].From, ref[i].Body)
			}
		}
	}
}

func TestBatchedSequencerTotalOrder(t *testing.T) {
	const senders, msgs = 4, 10
	r := newBatchRig(t, senders, TotalSequencer, BatchConfig{Window: 2 * time.Millisecond, MaxMsgs: 8})
	for i := 0; i < msgs; i++ {
		i := i
		r.sim.At(time.Duration(i)*time.Millisecond, func() {
			for _, id := range r.ids {
				if err := r.members[id].Multicast(fmt.Sprintf("%s-%02d", id, i), 16); err != nil {
					t.Errorf("multicast: %v", err)
				}
			}
		})
	}
	r.sim.Run()
	checkTotalAgreement(t, r, senders*msgs)
}

// TestBatchedSequencerContiguousBatches asserts the pipelining property:
// one sender's batch occupies one contiguous run of the global sequence
// (batches are never interleaved mid-batch).
func TestBatchedSequencerContiguousBatches(t *testing.T) {
	r := newBatchRig(t, 3, TotalSequencer, BatchConfig{Window: 5 * time.Millisecond, MaxMsgs: 100})
	// Both senders enqueue their whole burst inside one window, so each
	// burst travels as exactly one batch.
	r.sim.At(time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			_ = r.members["m01"].Multicast(fmt.Sprintf("b-%d", i), 8)
			_ = r.members["m02"].Multicast(fmt.Sprintf("c-%d", i), 8)
		}
	})
	r.sim.Run()
	checkTotalAgreement(t, r, 10)
	// Within the delivered order, each sender's run must be contiguous.
	for _, id := range r.ids {
		var order []string
		for _, d := range r.deliv[id] {
			order = append(order, d.From)
		}
		switches := 0
		for i := 1; i < len(order); i++ {
			if order[i] != order[i-1] {
				switches++
			}
		}
		if switches > 1 {
			t.Fatalf("member %s interleaved batches: delivery senders %v", id, order)
		}
	}
}

func TestBatchedTokenTotalOrder(t *testing.T) {
	const senders, msgs = 4, 8
	r := newBatchRig(t, senders, TotalToken, BatchConfig{Window: 2 * time.Millisecond, MaxMsgs: 16})
	for i := 0; i < msgs; i++ {
		i := i
		r.sim.At(time.Duration(i*3)*time.Millisecond, func() {
			for _, id := range r.ids {
				if err := r.members[id].Multicast(fmt.Sprintf("%s-%02d", id, i), 16); err != nil {
					t.Errorf("multicast: %v", err)
				}
			}
		})
	}
	r.sim.Run()
	checkTotalAgreement(t, r, senders*msgs)
}

func TestBatchedFIFOSenderOrder(t *testing.T) {
	const msgs = 25
	r := newBatchRig(t, 3, FIFO, BatchConfig{Window: time.Millisecond, MaxMsgs: 7})
	for i := 0; i < msgs; i++ {
		i := i
		r.sim.At(time.Duration(i)*500*time.Microsecond, func() {
			_ = r.members["m00"].Multicast(i, 8)
			_ = r.members["m01"].Multicast(100+i, 8)
		})
	}
	r.sim.Run()
	for _, id := range r.ids {
		perSender := map[string][]int{}
		for _, d := range r.deliv[id] {
			perSender[d.From] = append(perSender[d.From], d.Body.(int))
		}
		for sender, got := range perSender {
			if len(got) != msgs {
				t.Fatalf("member %s got %d messages from %s, want %d", id, len(got), sender, msgs)
			}
			for i := 1; i < len(got); i++ {
				if got[i] != got[i-1]+1 {
					t.Fatalf("member %s: out-of-order FIFO from %s: %v", id, sender, got)
				}
			}
		}
	}
}

// TestBatchMaxFlushesWithoutTimer covers the size-triggered flush: with
// Window 0 the batch must leave as soon as MaxMsgs accumulate, no timer
// involved.
func TestBatchMaxFlushesWithoutTimer(t *testing.T) {
	r := newBatchRig(t, 2, TotalSequencer, BatchConfig{MaxMsgs: 3})
	r.sim.At(time.Millisecond, func() {
		for i := 0; i < 6; i++ {
			_ = r.members["m01"].Multicast(i, 8)
		}
	})
	r.sim.Run()
	checkTotalAgreement(t, r, 6)
}

// TestBatchExplicitFlush covers the Flush path: a partial batch below
// MaxMsgs with no window only moves when the application says so.
func TestBatchExplicitFlush(t *testing.T) {
	r := newBatchRig(t, 2, TotalSequencer, BatchConfig{MaxMsgs: 100})
	r.sim.At(time.Millisecond, func() {
		_ = r.members["m01"].Multicast("x", 8)
		_ = r.members["m01"].Multicast("y", 8)
	})
	r.sim.At(2*time.Millisecond, func() {
		if got := len(r.deliv["m00"]); got != 0 {
			t.Errorf("batch leaked before flush: %d deliveries", got)
		}
		r.members["m01"].Flush()
	})
	r.sim.Run()
	checkTotalAgreement(t, r, 2)
}

// TestBatchedAndUnbatchedInteroperate runs one batched and one unbatched
// sender in the same group, under both total orders: everyone reaches the
// same global order. A tap on the batched sender's wire checks the framing
// rule on the way: a kBatch never carries fewer than two messages, and with
// MaxMsgs 2 and an odd number of sends the final message — the one only
// Flush moves — leaves as a bare kData.
func TestBatchedAndUnbatchedInteroperate(t *testing.T) {
	cases := []struct {
		name     string
		ord      Ordering
		batch    BatchConfig
		sends    int
		bareTail bool
	}{
		{"sequencer-window", TotalSequencer, BatchConfig{Window: 2 * time.Millisecond, MaxMsgs: 8}, 6, false},
		{"token-window", TotalToken, BatchConfig{Window: 2 * time.Millisecond, MaxMsgs: 8}, 6, false},
		{"sequencer-odd-tail", TotalSequencer, BatchConfig{MaxMsgs: 2}, 5, true},
		{"token-odd-tail", TotalToken, BatchConfig{MaxMsgs: 2}, 5, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3, tc.ord, netsim.LANLink) // unbatched members
			// frames is the message count of each data frame m99 sent to m00.
			var frames []int
			tap := fabric.Tap(func(to string, payload any, _ int) {
				p := payload.(*packet)
				if to != "m00" || (p.Kind != kData && p.Kind != kBatch) {
					return
				}
				if p.Kind == kBatch && len(p.Msgs) < 2 {
					t.Errorf("kBatch frame carrying %d message(s); a run of one must travel bare", len(p.Msgs))
				}
				frames = append(frames, max(1, len(p.Msgs)))
			}, nil)
			var batchedDeliv []Delivery
			batched, err := NewMember(Config{
				Endpoint: fabric.Wrap(fabric.FromSim(r.sim.MustAddNode("m99")), tap),
				Timer:    TimerFunc(func(d time.Duration, fn func()) { r.sim.At(d, fn) }),
				Ordering: tc.ord,
				Batch:    tc.batch,
				Deliver:  func(d Delivery) { batchedDeliv = append(batchedDeliv, d) },
			})
			if err != nil {
				t.Fatal(err)
			}
			ids := append(append([]string(nil), r.ids...), "m99")
			v := NewView(2, ids)
			for _, m := range r.members {
				m.InstallView(v)
			}
			batched.InstallView(v)
			for i := 0; i < tc.sends; i++ {
				i := i
				r.sim.At(time.Duration(i)*time.Millisecond, func() {
					_ = r.members["m01"].Multicast(fmt.Sprintf("plain-%d", i), 8)
					_ = batched.Multicast(fmt.Sprintf("batch-%d", i), 8)
				})
			}
			r.sim.At(time.Duration(tc.sends)*time.Millisecond, batched.Flush)
			r.sim.Run()
			want := 2 * tc.sends
			if len(batchedDeliv) != want {
				t.Fatalf("batched member delivered %d, want %d", len(batchedDeliv), want)
			}
			for _, id := range r.ids {
				if len(r.deliv[id]) != want {
					t.Fatalf("member %s delivered %d, want %d", id, len(r.deliv[id]), want)
				}
				for i := range r.deliv[id] {
					if r.deliv[id][i].Seq != batchedDeliv[i].Seq || fmt.Sprint(r.deliv[id][i].Body) != fmt.Sprint(batchedDeliv[i].Body) {
						t.Fatalf("member %s disagrees with batched member at %d", id, i)
					}
				}
			}
			sent := 0
			for _, n := range frames {
				sent += n
			}
			if sent != tc.sends {
				t.Fatalf("batched sender framed %d messages as %v, want %d", sent, frames, tc.sends)
			}
			if tc.bareTail && frames[len(frames)-1] != 1 {
				t.Fatalf("frames %v: the odd final message must leave as a bare kData", frames)
			}
		})
	}
}

// TestBatchWindowRequiresTimer pins the config validation.
func TestBatchWindowRequiresTimer(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	_, err := NewMember(Config{
		Endpoint: fabric.FromSim(sim.MustAddNode("x")),
		Ordering: TotalSequencer,
		Batch:    BatchConfig{Window: time.Millisecond},
		Deliver:  func(Delivery) {},
	})
	if err == nil {
		t.Fatal("want error for batch window without timer")
	}
}

// TestBatchClearedOnViewChange: coalesced-but-unsent messages do not leak
// into the next view.
func TestBatchClearedOnViewChange(t *testing.T) {
	r := newBatchRig(t, 2, TotalSequencer, BatchConfig{MaxMsgs: 100})
	r.sim.At(time.Millisecond, func() {
		_ = r.members["m01"].Multicast("stale", 8)
	})
	r.sim.At(2*time.Millisecond, func() {
		v := NewView(2, r.ids)
		for _, id := range r.ids {
			r.members[id].InstallView(v)
		}
		r.members["m01"].Flush() // nothing should be pending
	})
	r.sim.Run()
	for _, id := range r.ids {
		if len(r.deliv[id]) != 0 {
			t.Fatalf("member %s delivered %d stale messages across a view change", id, len(r.deliv[id]))
		}
	}
}
