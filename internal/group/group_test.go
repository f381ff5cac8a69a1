package group

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// rig wires n members over a simulated network with the given ordering.
type rig struct {
	sim     *netsim.Sim
	members map[string]*Member
	deliv   map[string][]Delivery
	ids     []string
}

func newRig(t testing.TB, n int, ord Ordering, link netsim.Link) *rig {
	t.Helper()
	r := &rig{
		sim:     netsim.New(1, link),
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

func (r *rig) bodies(id string) []string {
	var out []string
	for _, d := range r.deliv[id] {
		out = append(out, fmt.Sprint(d.Body))
	}
	return out
}

func TestViewBasics(t *testing.T) {
	v := NewView(3, []string{"c", "a", "b"})
	if v.Sequencer() != "a" {
		t.Errorf("Sequencer = %q, want a (sorted least)", v.Sequencer())
	}
	if !v.Contains("b") || v.Contains("z") {
		t.Error("Contains wrong")
	}
}

func TestMulticastNotMember(t *testing.T) {
	r := newRig(t, 2, FIFO, netsim.LANLink)
	outsiderNode := r.sim.MustAddNode("outsider")
	m, err := NewMember(Config{Endpoint: fabric.FromSim(outsiderNode), Deliver: func(Delivery) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Multicast("x", 0); !errors.Is(err, ErrNotMember) {
		t.Errorf("Multicast outside view = %v", err)
	}
}

func TestFIFODelivery(t *testing.T) {
	r := newRig(t, 3, FIFO, netsim.LANLink)
	for i := 0; i < 10; i++ {
		if err := r.members["m00"].Multicast(fmt.Sprintf("a%d", i), 10); err != nil {
			t.Fatal(err)
		}
	}
	r.sim.Run()
	for _, id := range r.ids {
		got := r.bodies(id)
		if len(got) != 10 {
			t.Fatalf("%s delivered %d, want 10", id, len(got))
		}
		for i, b := range got {
			if b != fmt.Sprintf("a%d", i) {
				t.Fatalf("%s FIFO violated: %v", id, got)
			}
		}
	}
}

func TestFIFOIndependentSenders(t *testing.T) {
	r := newRig(t, 2, FIFO, netsim.LANLink)
	r.members["m00"].Multicast("x0", 10)
	r.members["m01"].Multicast("y0", 10)
	r.members["m00"].Multicast("x1", 10)
	r.members["m01"].Multicast("y1", 10)
	r.sim.Run()
	for _, id := range r.ids {
		got := r.bodies(id)
		// Per-sender order must hold regardless of interleaving.
		xi, yi := -1, -1
		for _, b := range got {
			switch b {
			case "x0":
				xi = 0
			case "x1":
				if xi != 0 {
					t.Fatalf("%s: x1 before x0: %v", id, got)
				}
			case "y0":
				yi = 0
			case "y1":
				if yi != 0 {
					t.Fatalf("%s: y1 before y0: %v", id, got)
				}
			}
		}
		if len(got) != 4 {
			t.Fatalf("%s delivered %d", id, len(got))
		}
	}
}

func TestCausalDelivery(t *testing.T) {
	// m00 sends a; m01 replies b after seeing a. Even with wildly different
	// link latencies, no member may deliver b before a.
	sim := netsim.New(7, netsim.LANLink)
	r := &rig{sim: sim, members: make(map[string]*Member), deliv: make(map[string][]Delivery)}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("m%02d", i)
		r.ids = append(r.ids, id)
		node := sim.MustAddNode(id)
		m, _ := NewMember(Config{
			Endpoint: fabric.FromSim(node),
			Ordering: Causal,
			Deliver: func(d Delivery) {
				r.deliv[id] = append(r.deliv[id], d)
				// Reply causally: when m01 sees "a" it multicasts "b".
				if id == "m01" && d.Body == "a" {
					r.members["m01"].Multicast("b", 10)
				}
			},
		})
		r.members[id] = m
	}
	v := NewView(1, r.ids)
	for _, m := range r.members {
		m.InstallView(v)
	}
	// m00 -> m02 is very slow, so b (from fast m01) would overtake a without
	// causal holdback.
	sim.SetLink("m00", "m02", netsim.Link{Latency: 500 * time.Millisecond})
	r.members["m00"].Multicast("a", 10)
	sim.Run()
	for _, id := range r.ids {
		got := r.bodies(id)
		if len(got) != 2 || got[0] != "a" || got[1] != "b" {
			t.Errorf("%s causal order violated: %v", id, got)
		}
	}
}

func totalOrderCheck(t *testing.T, r *rig) {
	t.Helper()
	ref := r.bodies(r.ids[0])
	for _, id := range r.ids[1:] {
		got := r.bodies(id)
		if len(got) != len(ref) {
			t.Fatalf("%s delivered %d, %s delivered %d", r.ids[0], len(ref), id, len(got))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("total order differs at %d: %s=%v %s=%v", i, r.ids[0], ref, id, got)
			}
		}
	}
}

func TestTotalSequencerAgreement(t *testing.T) {
	r := newRig(t, 4, TotalSequencer, netsim.Link{Latency: 5 * time.Millisecond, Jitter: 4 * time.Millisecond})
	// Concurrent multicasts from all members.
	for round := 0; round < 5; round++ {
		for _, id := range r.ids {
			if err := r.members[id].Multicast(fmt.Sprintf("%s-r%d", id, round), 20); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.sim.Run()
	for _, id := range r.ids {
		if len(r.deliv[id]) != 20 {
			t.Fatalf("%s delivered %d, want 20", id, len(r.deliv[id]))
		}
	}
	totalOrderCheck(t, r)
	// Sequence numbers must be gapless from 1.
	for i, d := range r.deliv[r.ids[0]] {
		if d.Seq != uint64(i+1) {
			t.Fatalf("seq gap: delivery %d has seq %d", i, d.Seq)
		}
	}
}

func TestTotalTokenAgreement(t *testing.T) {
	r := newRig(t, 4, TotalToken, netsim.Link{Latency: 5 * time.Millisecond, Jitter: 4 * time.Millisecond})
	for round := 0; round < 5; round++ {
		for _, id := range r.ids {
			if err := r.members[id].Multicast(fmt.Sprintf("%s-r%d", id, round), 20); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.sim.Run()
	for _, id := range r.ids {
		if len(r.deliv[id]) != 20 {
			t.Fatalf("%s delivered %d, want 20", id, len(r.deliv[id]))
		}
	}
	totalOrderCheck(t, r)
}

func TestTotalTokenSequentialSenders(t *testing.T) {
	// The token must move back and forth between alternating senders.
	r := newRig(t, 2, TotalToken, netsim.LANLink)
	for i := 0; i < 6; i++ {
		id := r.ids[i%2]
		if err := r.members[id].Multicast(fmt.Sprintf("s%d", i), 10); err != nil {
			t.Fatal(err)
		}
		r.sim.Run() // let each settle so token demand alternates
	}
	totalOrderCheck(t, r)
	if len(r.deliv[r.ids[0]]) != 6 {
		t.Fatalf("delivered %d, want 6", len(r.deliv[r.ids[0]]))
	}
}

// TestMulticastPastUnreachableMember: a target the sender cannot reach does
// not keep a multicast from the targets sorted after it; the unreachable one
// is reported.
func TestMulticastPastUnreachableMember(t *testing.T) {
	r := newRig(t, 3, FIFO, netsim.LANLink)
	r.sim.Partition([]string{"m00"}, []string{"m01"})
	err := r.members["m00"].Multicast("past m01", 8)
	if err == nil || !strings.Contains(err.Error(), "m01") {
		t.Errorf("Multicast = %v, want the failed send to m01", err)
	}
	r.sim.Run()
	for _, id := range []string{"m00", "m02"} {
		if got := r.bodies(id); len(got) != 1 || got[0] != "past m01" {
			t.Errorf("%s delivered %v, want the multicast", id, got)
		}
	}
}

func TestGroupRPCWaitAll(t *testing.T) {
	r := newRig(t, 3, FIFO, netsim.LANLink)
	for _, id := range r.ids {
		id := id
		r.members[id].Handle("ping", func(from string, body any) (any, error) {
			return id + "-pong", nil
		})
	}
	var got []Reply
	var gotErr error
	err := r.members["m00"].Call("ping", "hi", CallOpts{}, func(rs []Reply, err error) {
		got, gotErr = rs, err
	})
	if err != nil {
		t.Fatal(err)
	}
	r.sim.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(got) != 3 {
		t.Fatalf("replies = %d, want 3", len(got))
	}
	if got[0].From != "m00" || got[0].Body != "m00-pong" {
		t.Errorf("reply[0] = %+v", got[0])
	}
}

func TestGroupRPCDeadline(t *testing.T) {
	r := newRig(t, 3, FIFO, netsim.LANLink)
	// m02 is unreachable: partition it before the call.
	r.sim.Partition([]string{"m02"}, []string{"m00", "m01"})
	for _, id := range r.ids {
		id := id
		r.members[id].Handle("echo", func(from string, body any) (any, error) { return id, nil })
	}
	var got []Reply
	var gotErr error
	called := 0
	r.members["m00"].Call("echo", nil, CallOpts{Deadline: 100 * time.Millisecond}, func(rs []Reply, err error) {
		got, gotErr = rs, err
		called++
	})
	r.sim.RunUntil(time.Second)
	if called != 1 {
		t.Fatalf("callback called %d times", called)
	}
	if !errors.Is(gotErr, ErrRPCDeadline) {
		t.Fatalf("err = %v, want deadline", gotErr)
	}
	if len(got) != 2 {
		t.Errorf("partial replies = %d, want 2 (m02 partitioned)", len(got))
	}
}

func TestGroupRPCUnknownOp(t *testing.T) {
	r := newRig(t, 2, FIFO, netsim.LANLink)
	var got []Reply
	r.members["m00"].Call("nosuch", nil, CallOpts{}, func(rs []Reply, err error) { got = rs })
	r.sim.Run()
	if len(got) != 2 {
		t.Fatalf("replies = %d", len(got))
	}
	for _, rep := range got {
		if rep.Err == nil {
			t.Errorf("reply from %s should be an error", rep.From)
		}
	}
}

func TestOrderingString(t *testing.T) {
	names := map[Ordering]string{
		Unordered: "unordered", FIFO: "fifo", Causal: "causal",
		TotalSequencer: "total-sequencer", TotalToken: "total-token",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

func BenchmarkFIFOMulticast8(b *testing.B) {
	r := newRig(b, 8, FIFO, netsim.LANLink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.members["m00"].Multicast(i, 32)
		if i%256 == 0 {
			r.sim.Run()
		}
	}
	r.sim.Run()
}

func BenchmarkTotalSequencerMulticast8(b *testing.B) {
	r := newRig(b, 8, TotalSequencer, netsim.LANLink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.members["m01"].Multicast(i, 32)
		if i%256 == 0 {
			r.sim.Run()
		}
	}
	r.sim.Run()
}
