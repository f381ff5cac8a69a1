package group

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// lossyRig builds a 2-member FIFO group over a link that drops the given
// fraction of messages.
func lossyRig(t *testing.T, loss float64, seed int64) *rig {
	t.Helper()
	link := netsim.Link{Latency: 5 * time.Millisecond, Loss: loss}
	r := &rig{
		sim:     netsim.New(seed, link),
		members: make(map[string]*Member),
		deliv:   make(map[string][]Delivery),
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("m%02d", i)
		r.ids = append(r.ids, id)
		node := r.sim.MustAddNode(id)
		m, err := NewMember(Config{
			Endpoint: fabric.FromSim(node),
			Ordering: FIFO,
			Deliver:  func(d Delivery) { r.deliv[id] = append(r.deliv[id], d) },
		})
		if err != nil {
			t.Fatal(err)
		}
		r.members[id] = m
	}
	// Self-delivery must be reliable even on a lossy mesh.
	r.sim.SetBiLink("m00", "m00", netsim.Link{Latency: time.Millisecond})
	r.sim.SetBiLink("m01", "m01", netsim.Link{Latency: time.Millisecond})
	v := NewView(1, r.ids)
	for _, m := range r.members {
		m.InstallView(v)
	}
	return r
}

func TestNackRecoversSingleLoss(t *testing.T) {
	r := lossyRig(t, 0, 1)
	// Drop exactly message 2 of 3 by toggling the link.
	r.members["m00"].Multicast("one", 10)
	r.sim.Run()
	r.sim.SetLink("m00", "m01", netsim.Link{Latency: 5 * time.Millisecond, Loss: 1.0})
	r.members["m00"].Multicast("two", 10)
	r.sim.Run()
	r.sim.SetLink("m00", "m01", netsim.Link{Latency: 5 * time.Millisecond})
	r.members["m00"].Multicast("three", 10)
	r.sim.Run()
	// "three" arrived out of order; m01 NACKed; m00 retransmitted "two".
	got := r.bodies("m01")
	want := []string{"one", "two", "three"}
	if len(got) != 3 {
		t.Fatalf("delivered %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if r.members["m00"].RetransmissionCount() != 1 {
		t.Errorf("retransmissions = %d", r.members["m00"].RetransmissionCount())
	}
}

// TestRequestRepairSendsNow loses the NACK for a gap and heals the link:
// RequestRepair must send the NACK itself, not leave it queued until the
// next packet this member receives, which never comes here.
func TestRequestRepairSendsNow(t *testing.T) {
	r := lossyRig(t, 0, 1)
	healthy := netsim.Link{Latency: 5 * time.Millisecond}
	lost := netsim.Link{Latency: 5 * time.Millisecond, Loss: 1.0}
	r.members["m00"].Multicast("one", 10)
	r.sim.Run()
	r.sim.SetLink("m00", "m01", lost)
	r.members["m00"].Multicast("two", 10)
	r.sim.Run()
	r.sim.SetLink("m00", "m01", healthy)
	r.sim.SetLink("m01", "m00", lost) // m01's NACK for "two" is lost
	r.members["m00"].Multicast("three", 10)
	r.sim.Run()
	r.sim.SetLink("m01", "m00", healthy)
	r.members["m01"].RequestRepair()
	r.sim.Run()
	if got := fmt.Sprint(r.bodies("m01")); got != "[one two three]" {
		t.Fatalf("m01 delivered %s after RequestRepair, want [one two three]", got)
	}
}

func TestNackUnderRandomLossWithRepairTimer(t *testing.T) {
	r := lossyRig(t, 0.25, 7)
	const n = 60
	for i := 0; i < n; i++ {
		i := i
		r.sim.At(time.Duration(i)*50*time.Millisecond, func() {
			_ = r.members["m00"].Multicast(fmt.Sprintf("msg-%02d", i), 10)
		})
	}
	// A periodic repair pass stands in for the repair timer a live session
	// would run; it also covers the lost-NACK and lost-repair cases.
	for i := 1; i <= 200; i++ {
		r.sim.At(time.Duration(i)*100*time.Millisecond, func() {
			r.members["m01"].RequestRepair()
		})
	}
	r.sim.Run()
	got := r.bodies("m01")
	if len(got) != n {
		t.Fatalf("delivered %d/%d despite repair", len(got), n)
	}
	for i := range got {
		if got[i] != fmt.Sprintf("msg-%02d", i) {
			t.Fatalf("FIFO violated at %d: %v", i, got[i])
		}
	}
	if r.members["m00"].RetransmissionCount() == 0 {
		t.Error("no retransmissions on a 25% lossy link?")
	}
}

func TestNackDamping(t *testing.T) {
	// Many out-of-order arrivals for one gap must produce one NACK, not a
	// storm: count kNack packets on the wire.
	sim := netsim.New(1, netsim.Link{Latency: time.Millisecond})
	nacks := 0
	sender := sim.MustAddNode("s")
	recvNode := sim.MustAddNode("r")
	// Count kNack packets arriving at the sender via a Tap middleware on
	// its endpoint.
	senderEP := fabric.Wrap(fabric.FromSim(sender), fabric.Tap(nil,
		func(peer string, payload any, size int) {
			if p, ok := payload.(*packet); ok && p.Kind == kNack {
				nacks++
			}
		}))
	ms, _ := NewMember(Config{Endpoint: senderEP, Ordering: FIFO, Deliver: func(Delivery) {}})
	mr, _ := NewMember(Config{Endpoint: fabric.FromSim(recvNode), Ordering: FIFO, Deliver: func(Delivery) {}})
	v := NewView(1, []string{"r", "s"})
	ms.InstallView(v)
	mr.InstallView(v)
	// Hand-deliver packets 2..5 (packet 1 "lost"), bypassing the network to
	// control arrival exactly; the NACKs themselves ride the sim.
	for seq := uint64(2); seq <= 5; seq++ {
		mr.Receive("s", &packet{Kind: kData, From: "s", ViewID: 1, Body: seq, SenderSeq: seq})
	}
	sim.Run()
	if nacks != 1 {
		t.Errorf("nacks = %d, want 1 (damped)", nacks)
	}
}

func TestSyncPointRecoversTailLoss(t *testing.T) {
	r := lossyRig(t, 0, 3)
	r.members["m00"].Multicast("first", 10)
	r.sim.Run()
	// The final message is lost; no later data will ever reveal the gap.
	r.sim.SetLink("m00", "m01", netsim.Link{Latency: 5 * time.Millisecond, Loss: 1.0})
	r.members["m00"].Multicast("last", 10)
	r.sim.Run()
	if got := r.bodies("m01"); len(got) != 1 {
		t.Fatalf("delivered = %v", got)
	}
	// Link heals; a sync point advertises the high-water mark and the
	// receiver NACKs the tail.
	r.sim.SetLink("m00", "m01", netsim.Link{Latency: 5 * time.Millisecond})
	r.members["m00"].SyncPoint()
	r.sim.Run()
	got := r.bodies("m01")
	if len(got) != 2 || got[1] != "last" {
		t.Fatalf("after sync point: %v", got)
	}
	if r.members["m00"].RetransmissionCount() != 1 {
		t.Errorf("retransmissions = %d", r.members["m00"].RetransmissionCount())
	}
}

func TestSyncPointNoopWhenCaughtUp(t *testing.T) {
	r := lossyRig(t, 0, 4)
	r.members["m00"].Multicast("x", 10)
	r.sim.Run()
	sent, _ := r.sim.Stats()
	r.members["m00"].SyncPoint()
	r.sim.Run()
	// The sync point itself travels, but no NACK or retransmission follows.
	if r.members["m00"].RetransmissionCount() != 0 {
		t.Error("caught-up receiver triggered retransmission")
	}
	sent2, _ := r.sim.Stats()
	if sent2-sent > 2 { // one sync to each member, nothing else
		t.Errorf("extra traffic after sync point: %d messages", sent2-sent)
	}
}
