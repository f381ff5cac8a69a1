package group

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/vclock"
)

// TestFIFODuplicateSuppressed: a replayed (duplicate) packet must not be
// delivered twice.
func TestFIFODuplicateSuppressed(t *testing.T) {
	r := newRig(t, 2, FIFO, netsim.LANLink)
	r.members["m00"].Multicast("once", 10)
	r.sim.Run()
	// Replay the same sender-seq by hand.
	dup := &packet{Kind: kData, From: "m00", ViewID: 1, Body: "once", SenderSeq: 1}
	r.members["m01"].Receive("m00", dup)
	if got := len(r.deliv["m01"]); got != 1 {
		t.Fatalf("delivered %d, duplicate slipped through", got)
	}
}

// TestCausalGapHoldsBack: a message missing its causal predecessor waits.
func TestCausalGapHoldsBack(t *testing.T) {
	r := newRig(t, 2, Causal, netsim.LANLink)
	m := r.members["m01"]
	// Fabricate message 2 from m00 without message 1.
	vc2 := map[string]uint64{"m00": 2}
	pkt := &packet{Kind: kData, From: "m00", ViewID: 1, Body: "second", VC: toVC(vc2)}
	m.Receive("m00", pkt)
	if len(r.deliv["m01"]) != 0 {
		t.Fatal("gap message delivered early")
	}
	vc1 := map[string]uint64{"m00": 1}
	m.Receive("m00", &packet{Kind: kData, From: "m00", ViewID: 1, Body: "first", VC: toVC(vc1)})
	got := r.bodies("m01")
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("delivery order = %v", got)
	}
}

func toVC(m map[string]uint64) vclock.VC { return vclock.VC(m) }

// TestTotalSequencerLossStalls: if the sequencer is partitioned away, total
// order stalls (no unsafe delivery) until heal.
func TestTotalSequencerPartitionStallsThenRecovers(t *testing.T) {
	r := newRig(t, 3, TotalSequencer, netsim.LANLink)
	seqr := NewView(1, r.ids).Sequencer()
	others := make([]string, 0, 2)
	for _, id := range r.ids {
		if id != seqr {
			others = append(others, id)
		}
	}
	r.sim.Partition([]string{seqr}, others)
	r.members[others[0]].Multicast("while-partitioned", 10)
	r.sim.Run()
	for _, id := range others {
		if len(r.deliv[id]) != 0 {
			t.Fatalf("%s delivered without sequencer", id)
		}
	}
	// Heal and resend: ordering resumes. (The lost packets are not
	// retransmitted — reliability is the caller's concern — so send anew.)
	r.sim.Heal([]string{seqr}, others)
	r.members[others[0]].Multicast("after-heal", 10)
	r.sim.Run()
	for _, id := range r.ids {
		found := false
		for _, d := range r.deliv[id] {
			if d.Body == "after-heal" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missed the post-heal message", id)
		}
	}
}

// TestRPCErrorRepliesCount: an error reply is a reply (a fast refusal is
// information too), so a call completes with every member's answer, error
// or not.
func TestRPCErrorRepliesCount(t *testing.T) {
	r := newRig(t, 5, FIFO, netsim.LANLink)
	for i, id := range r.ids {
		id := id
		fail := i%2 == 0
		r.members[id].Handle("op", func(from string, body any) (any, error) {
			if fail {
				return nil, fmt.Errorf("%s declines", id)
			}
			return id, nil
		})
	}
	var got []Reply
	var gotErr error
	r.members["m01"].Call("op", nil, CallOpts{}, func(rs []Reply, err error) { got, gotErr = rs, err })
	r.sim.Run()
	failed := 0
	for _, rep := range got {
		if rep.Err != nil {
			failed++
		}
	}
	if gotErr != nil || len(got) != 5 || failed != 3 {
		t.Fatalf("call ended with %v after %d replies, %d of them errors; want all 5, 3 errors", gotErr, len(got), failed)
	}
}

// TestViewChangeResetsOrderingState: after a new view installs, sequence
// numbering restarts cleanly and traffic flows in the new membership.
func TestViewChangeResetsOrderingState(t *testing.T) {
	r := newRig(t, 3, TotalSequencer, netsim.LANLink)
	for i := 0; i < 3; i++ {
		r.members["m01"].Multicast(fmt.Sprintf("v1-%d", i), 10)
	}
	r.sim.Run()
	// Shrink the view (m02 leaves), quiescent.
	v2 := NewView(2, []string{"m00", "m01"})
	for _, id := range []string{"m00", "m01", "m02"} {
		r.members[id].InstallView(v2)
	}
	before := len(r.deliv["m00"])
	r.members["m01"].Multicast("v2-first", 10)
	r.sim.Run()
	if got := r.deliv["m00"][len(r.deliv["m00"])-1]; got.Seq != 1 {
		t.Errorf("first post-view seq = %d, want 1", got.Seq)
	}
	if len(r.deliv["m00"]) != before+1 {
		t.Errorf("delivery count = %d", len(r.deliv["m00"]))
	}
	// The departed member gets nothing new.
	for _, d := range r.deliv["m02"] {
		if d.Body == "v2-first" {
			t.Error("departed member received new-view traffic")
		}
	}
}

// TestTokenViewChangeMovesToken: after a view change, the token belongs to
// the new view's least member and traffic still totally orders.
func TestTokenViewChangeMovesToken(t *testing.T) {
	r := newRig(t, 3, TotalToken, netsim.LANLink)
	r.members["m00"].Multicast("old-view", 10)
	r.sim.Run()
	v2 := NewView(2, []string{"m01", "m02"})
	for _, id := range r.ids {
		r.members[id].InstallView(v2)
	}
	r.members["m02"].Multicast("new-view-a", 10)
	r.members["m01"].Multicast("new-view-b", 10)
	r.sim.Run()
	a := r.bodies("m01")
	b := r.bodies("m02")
	// Compare only new-view traffic.
	tail := func(xs []string) []string {
		var out []string
		for _, x := range xs {
			if x == "new-view-a" || x == "new-view-b" {
				out = append(out, x)
			}
		}
		return out
	}
	ta, tb := tail(a), tail(b)
	if len(ta) != 2 || len(tb) != 2 {
		t.Fatalf("new-view deliveries: m01=%v m02=%v", ta, tb)
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("total order differs: %v vs %v", ta, tb)
		}
	}
}
