package exps

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/simworld"
)

// RunE7Groups measures group communication (§4.2.2.iv): multicast delivery
// latency per ordering guarantee and group size (including the
// sequencer-vs-token total-order ablation), and bounded-latency group RPC.
func RunE7Groups(seed int64) Table {
	t := Table{
		ID:      "E7",
		Title:   "group communication: ordering guarantees and group invocation",
		Claim:   "stronger orderings cost more latency (fifo < causal < total); a deadline-bounded group RPC returns partial results on time where an unbounded one stalls",
		Columns: []string{"configuration", "group size", "mean delivery", "p95 delivery", "msgs delivered"},
	}
	orders := []group.Ordering{group.FIFO, group.Causal, group.TotalSequencer, group.TotalToken}
	for _, n := range []int{4, 16} {
		for _, ord := range orders {
			mean, p95, delivered := runMulticast(seed, n, ord)
			t.Rows = append(t.Rows, []string{
				ord.String(), fmt.Sprintf("%d", n), fmtDur(mean), fmtDur(p95), fmt.Sprintf("%d", delivered),
			})
		}
	}

	// Lossy-link delivery with NACK repair (the engineering-viewpoint
	// reliability layer).
	delivered, retrans := runLossyFIFO(seed)
	t.Rows = append(t.Rows, []string{
		"fifo + NACK repair (15% loss)", "2", "-", "-",
		fmt.Sprintf("%d/60 delivered in order, %d retransmissions", delivered, retrans),
	})

	// Bounded group RPC: one member partitioned away.
	for _, bounded := range []bool{false, true} {
		label, detail := runGroupRPC(seed, bounded)
		t.Rows = append(t.Rows, []string{label, "8", "-", "-", detail})
	}
	t.Notes = append(t.Notes,
		"WAN mesh (40ms +-8ms); each member multicasts 10 messages with 200ms spacing",
		"total-sequencer pays an extra sequencer hop; total-token pays token acquisition on sender change")
	return t
}

// runLossyFIFO pushes 60 messages over a 15%-lossy link with a periodic
// repair pass and reports completeness.
func runLossyFIFO(seed int64) (delivered, retrans int) {
	w := simworld.New(seed, netsim.Link{Latency: 5 * time.Millisecond, Loss: 0.15})
	sim := w.Sim
	members, err := w.Members(w.Named("a", "b"), group.FIFO, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(group.Delivery) {
			if id == "b" {
				delivered++
			}
		}
	})
	if err != nil {
		panic(err)
	}
	ma, mb := members["a"], members["b"]
	// Self-delivery (loopback) is reliable; only the radio hop is lossy.
	sim.SetBiLink("a", "a", netsim.Link{Latency: time.Millisecond})
	sim.SetBiLink("b", "b", netsim.Link{Latency: time.Millisecond})
	for i := 0; i < 60; i++ {
		i := i
		sim.At(time.Duration(i)*50*time.Millisecond, func() { _ = ma.Multicast(i, 16) })
	}
	// Sender sync points expose tail loss; receiver repair passes re-arm
	// NACKs whose requests or repairs were themselves lost.
	for i := 1; i <= 100; i++ {
		sim.At(time.Duration(i)*100*time.Millisecond, func() { _ = ma.SyncPoint() })
		sim.At(time.Duration(i)*100*time.Millisecond+50*time.Millisecond, mb.RequestRepair)
	}
	sim.Run()
	return delivered, ma.RetransmissionCount()
}

// memberIDs names a group's members m00, m01, …
func memberIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	return ids
}

func runMulticast(seed int64, n int, ord group.Ordering) (mean, p95 time.Duration, delivered int) {
	w := simworld.New(seed, netsim.WANLink)
	sim := w.Sim
	ids := memberIDs(n)
	sent := make(map[string]time.Duration)
	var lats []time.Duration
	members, err := w.Members(ids, ord, group.BatchConfig{}, func(string) func(group.Delivery) {
		return func(d group.Delivery) {
			delivered++
			if at, ok := sent[fmt.Sprint(d.Body)]; ok {
				lats = append(lats, sim.Now()-at)
			}
		}
	})
	if err != nil {
		panic(err)
	}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for i, id := range ids {
			id, i, r := id, i, r
			at := time.Duration(r)*200*time.Millisecond + time.Duration(i)*7*time.Millisecond
			sim.At(at, func() {
				body := fmt.Sprintf("%s-%d", id, r)
				sent[body] = sim.Now()
				_ = members[id].Multicast(body, 64)
			})
		}
	}
	sim.Run()
	if len(lats) == 0 {
		return 0, 0, delivered
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return sum / time.Duration(len(lats)), lats[len(lats)*95/100], delivered
}

func runGroupRPC(seed int64, bounded bool) (label, detail string) {
	w := simworld.New(seed, netsim.WANLink)
	sim := w.Sim
	ids := memberIDs(8)
	members, err := w.Members(ids, group.FIFO, group.BatchConfig{}, func(string) func(group.Delivery) {
		return func(group.Delivery) {}
	})
	if err != nil {
		panic(err)
	}
	for _, id := range ids {
		members[id].Handle("status", func(from string, body any) (any, error) { return "ok", nil })
	}
	// m07 is unreachable.
	sim.Partition([]string{"m07"}, ids[:7])

	opts := group.CallOpts{Mode: group.WaitAll}
	if bounded {
		opts.Deadline = 500 * time.Millisecond
	}
	start := sim.Now()
	var got int
	var gotErr error
	var answeredAt time.Duration
	answered := false
	_ = members["m00"].Call("status", nil, opts, func(rs []group.Reply, err error) {
		answered = true
		answeredAt = sim.Now()
		got, gotErr = len(rs), err
	})
	sim.RunUntil(10 * time.Second)
	if bounded {
		label = "group RPC, 500ms deadline"
	} else {
		label = "group RPC, unbounded"
	}
	switch {
	case !answered:
		detail = "stalled forever waiting for the partitioned member"
	case gotErr != nil:
		detail = fmt.Sprintf("%d/8 replies at deadline (%s after call)", got, fmtDur(answeredAt-start))
	default:
		detail = fmt.Sprintf("%d/8 replies", got)
	}
	return label, detail
}
