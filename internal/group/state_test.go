package group

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/netsim"
)

// retained is the number of messages and message ids m keeps for the total
// orders: ordered messages awaiting delivery, own messages awaiting their
// order, and the ids a sequencer holds above an origin's high-water mark.
func (m *Member) retained() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.held) + len(m.own)
	for _, s := range m.sequenced {
		n += len(s.above)
	}
	return n
}

// stateSizes is the length of every map and queue m keeps across
// multicasts, by name.
func (m *Member) stateSizes() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	above := 0
	for _, s := range m.sequenced {
		above += len(s.above)
	}
	return map[string]int{
		"fifoNext": len(m.fifoNext), "fifoHold": len(m.fifoHold), "sentBuf": len(m.sentBuf),
		"nacked": len(m.nacked), "knownHi": len(m.knownHi), "causalHold": len(m.causalHold),
		"held": len(m.held), "own": len(m.own), "sequenced": len(m.sequenced), "above": above,
		"tokenWait": len(m.tokenWait), "waitKnown": len(m.waitKnown), "outbox": len(m.outbox),
		"batchBuf": len(m.batchBuf), "calls": len(m.calls),
	}
}

// TestSequencerReplayRetainsNothing: every packet of a finished sequencer
// round is handed again to the members it reached — each member's data to
// the sequencer, each forwarding order to the members it went to — and to
// the members it did not reach. Nothing is delivered twice, and once the
// replays are processed no member keeps a message or an id for them.
func TestSequencerReplayRetainsNothing(t *testing.T) {
	r := newRig(t, 3, TotalSequencer, netsim.LANLink)
	for _, id := range r.ids {
		r.members[id].Multicast(id+"-once", 8)
	}
	r.sim.Run()
	want := r.bodies("m00")
	if len(want) != 3 {
		t.Fatalf("the sequencer delivered %v, want all three", want)
	}
	for _, d := range r.deliv["m00"] {
		origin := d.From
		data := &packet{Kind: kData, From: origin, ViewID: 1, Body: d.Body, Size: 8, MsgID: msgID{Origin: origin, N: 1}}
		fwd := &packet{Kind: kOrder, From: "m00", ViewID: 1, Body: d.Body, Size: 8, MsgID: data.MsgID, GlobalSeq: d.Seq}
		for _, id := range r.ids {
			r.members[id].Receive(origin, data)
			r.members[id].Receive("m00", fwd)
		}
	}
	r.sim.Run()
	for _, id := range r.ids {
		if got := r.bodies(id); !slices.Equal(got, want) {
			t.Errorf("%s delivered %v after the replay, want %v", id, got, want)
		}
		if n := r.members[id].retained(); n != 0 {
			t.Errorf("%s retains %d messages or ids after the replay, want 0", id, n)
		}
	}
}

// soakBytesPerOp bounds how much the retained heap may grow per multicast
// over TestOrderingSoak: a map entry kept per message costs tens of bytes,
// and the members measured here retain a few hundred bytes in all.
const soakBytesPerOp = 1

// TestOrderingSoak runs 10^5 multicasts through four members of each
// ordering on the in-test FIFO pump (pumpNet), in rounds of one multicast
// per member, each round pumped until nothing is in flight, and checks
// after every 1000 rounds that the members agree, that every map and queue
// a member keeps holds at most one entry per member (FIFO's repair buffer
// at most retainWindow), and at the end that the live heap grew by at most
// soakBytesPerOp per multicast.
func TestOrderingSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5 multicasts per ordering")
	}
	if raceEnabled {
		t.Skip("the race detector takes the run from seconds to a minute and adds its own heap")
	}
	// The heap is first read after warm multicasts: by then FIFO's repair
	// buffer, whose packets pin their arena chunks, has filled.
	const members, total, check, warm = 4, 100_000, 4_000, 20_000
	for _, ord := range []Ordering{Unordered, FIFO, Causal, TotalSequencer, TotalToken} {
		t.Run(ord.String(), func(t *testing.T) {
			r := &pumpNet{ids: []string{"m00", "m01", "m02", "m03"}, members: make(map[string]*Member, members)}
			// Deliveries are folded into one hash per member, so the
			// test itself retains nothing per message.
			hash := make(map[string]uint64, members)
			count := make(map[string]int, members)
			for _, id := range r.ids {
				m, err := NewMember(Config{Endpoint: &pumpEndpoint{net: r, id: id}, Ordering: ord,
					Deliver: func(d Delivery) {
						// The per-member hash is of the delivery order only
						// under the total orders; the others fold the bodies.
						if ord == TotalSequencer || ord == TotalToken {
							hash[id] = hash[id]*1_000_003 + d.Seq<<32 + uint64(d.Body.(int))
						} else {
							hash[id] += uint64(d.Body.(int))
						}
						count[id]++
					}})
				if err != nil {
					t.Fatal(err)
				}
				r.members[id] = m
			}
			v := NewView(1, r.ids)
			for _, id := range r.ids {
				r.members[id].InstallView(v)
			}
			var base runtime.MemStats
			for sent := 0; sent < total; {
				for range check / members {
					for _, id := range r.ids {
						sent++
						_ = r.members[id].Multicast(sent, 8)
					}
					r.pump()
				}
				for _, id := range r.ids {
					if count[id] != sent || hash[id] != hash["m00"] {
						t.Fatalf("after %d multicasts %s delivered %d (hash %x, m00's %x)", sent, id, count[id], hash[id], hash["m00"])
					}
					for name, n := range r.members[id].stateSizes() {
						limit := members
						if name == "sentBuf" {
							limit = retainWindow
						}
						if n > limit {
							t.Fatalf("after %d multicasts %s keeps %d entries in %s", sent, id, n, name)
						}
					}
				}
				if sent == warm {
					liveHeap(&base)
				}
			}
			var end runtime.MemStats
			liveHeap(&end)
			runtime.KeepAlive(r) // the members' state is what is measured
			grew := int64(end.HeapAlloc) - int64(base.HeapAlloc)
			if per := float64(grew) / float64(total-warm); per > soakBytesPerOp {
				t.Errorf("live heap grew %d bytes over %d multicasts, %.2f per op, want at most %d", grew, total-warm, per, soakBytesPerOp)
			}
			t.Logf("live heap grew %d bytes over %d multicasts", grew, total-warm)
		})
	}
}

// liveHeap reads the memory statistics after two collections: the second
// frees what the first only moved to sync.Pool's victim cache.
func liveHeap(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}
