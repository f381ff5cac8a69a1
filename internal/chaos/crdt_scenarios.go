package chaos

import (
	"fmt"
	"strings"

	"repro/internal/crdt"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/group"
	"repro/internal/netsim"
)

func init() {
	register(Scenario{
		Name:      "partition-crdt-converge",
		Desc:      "four CRDT participants of the shipped daemon editing through a mid-run partition, healed, then converged by state gossip",
		Invariant: "after heal and gossip every replica holds the identical document with nothing pending, and every drop is accounted",
		Challenge: "partial failure behind a relay that never integrates: symmetric replicas must reconcile a partition by merge alone (paper §5.2)",
		Run:       runPartitionCRDTConverge,
	})
	register(Scenario{
		Name:      "reorder-loss-crdt-set",
		Desc:      "OR-set and PN-counter replicas over unordered lossy reordering multicast, reconciled against an oracle that saw every op",
		Invariant: "all replicas converge to the oracle's set and counter value, and a concurrent add beats its concurrent remove (add-wins)",
		Challenge: "real-time cooperation without locking: commutative state survives an adversarial network (paper §5.4)",
		Run:       runReorderLossCRDTSet,
	})
}

// --- scenario: partition-crdt-converge ----------------------------------

func runPartitionCRDTConverge(w *World) {
	ids := []string{"r1", "r2", "r3", "r4"}
	// The shipped deployment under CRDT: the daemon only relays the items.
	d, err := w.Daemon(daemon.Config{Mode: "sync", Shards: 1, Engine: engine.CRDT}, ids...)
	if err != nil {
		w.Violatef("setup", "%v", err)
		return
	}
	text := func(id string) string { t, _ := d.Parts[id].Text(); return t }

	// Edits on every replica, continuing straight through the partition:
	// both halves diverge and must merge afterwards.
	const edits = 40
	r := w.Sim.Rand()
	for i := 0; i < edits; i++ {
		i := i
		site := ids[i%len(ids)]
		w.Sim.At(ms(1+2*i), func() {
			n := len([]rune(text(site)))
			if n == 0 || r.Intn(100) < 70 {
				pos, ch := r.Intn(n+1), rune('a'+r.Intn(26))
				d.Edit(site, func(doc engine.Doc) ([]engine.Msg, error) { return doc.Insert(pos, ch) })
			} else {
				pos := r.Intn(n)
				d.Edit(site, func(doc engine.Doc) ([]engine.Msg, error) { return doc.Delete(pos) })
			}
		})
	}

	near, far := []string{daemon.HostID, "r1", "r2"}, []string{"r3", "r4"}
	w.Sim.At(ms(20), func() {
		w.Logf("PARTITION {host,r1,r2} | {r3,r4}")
		w.Sim.Partition(near, far)
	})
	w.Sim.At(ms(120), func() {
		w.Logf("HEAL")
		w.Sim.Heal(near, far)
	})

	// Anti-entropy: every replica gossips its full state through the relay
	// on a cadence until the group converges (or the deadline passes and the
	// check below fails).
	done := false
	w.Sim.Every(ms(15), func() bool {
		if w.Sim.Now() > ms(600) {
			return false
		}
		if w.Sim.Now() > ms(2*edits) && d.Converged() {
			done = true
			w.Logf("converged at %v", w.Sim.Now())
			return false
		}
		d.Tick()
		return true
	})

	w.Run()
	if err := d.Err(); err != nil {
		w.Violatef("crdt-convergence", "%v", err)
	}
	if !done && !d.Converged() {
		for _, id := range ids {
			t, pending := d.Parts[id].Text()
			w.Violatef("crdt-convergence", "%s ends with %q (%d pending)", id, t, pending)
		}
		return
	}
	final := text(ids[0])
	if final == "" {
		w.Violatef("crdt-convergence", "replicas converged on an empty document; the edits never happened")
	}
	w.Logf("final doc %q at all %d replicas", final, len(ids))
}

// --- scenario: reorder-loss-crdt-set ------------------------------------

func runReorderLossCRDTSet(w *World) {
	ids := []string{"s1", "s2", "s3"}
	adverse := netsim.Link{
		Latency: ms(2), Jitter: ms(1) / 2,
		Loss: 0.25, Reorder: 0.2, ReorderDelay: ms(8),
		Bandwidth: 1_250_000,
	}

	sets := make(map[string]*crdt.Set, len(ids))
	ctrs := make(map[string]*crdt.Counter, len(ids))
	// The oracle replica sits off the network and applies every op the
	// moment it is generated — the state the group must converge to.
	oracleSet := crdt.NewSet("oracle")
	oracleCtr := crdt.NewCounter("oracle")

	for _, id := range ids {
		sets[id] = crdt.NewSet(id)
		ctrs[id] = crdt.NewCounter(id)
	}
	w.FullMesh(adverse, ids...)
	members := w.Members(ids, group.Unordered, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(d group.Delivery) {
			switch b := d.Body.(type) {
			case *crdt.MsgOp:
				var err error
				switch b.Op.Kind {
				case crdt.OpSetAdd, crdt.OpSetRemove:
					err = sets[id].Apply(b.Op)
				case crdt.OpCtrAdd:
					err = ctrs[id].Apply(b.Op)
				}
				if err != nil {
					w.Violatef("set-convergence", "%s applying %v from %s: %v", id, b.Op.Kind, d.From, err)
				}
			case *crdt.MsgState:
				if b.Set != nil {
					sets[id].MergeState(b.Set)
				}
				if b.Ctr != nil {
					ctrs[id].MergeState(b.Ctr)
				}
			}
		}
	})
	if members == nil {
		return
	}

	// Every generated op reaches the oracle instantly and the group via
	// unordered multicast over the adverse links (the sender included: its
	// own loop-back delivery is a duplicate its replica must shrug off).
	bcastOp := func(site string, op crdt.Op) {
		var err error
		switch op.Kind {
		case crdt.OpSetAdd, crdt.OpSetRemove:
			err = oracleSet.Apply(op)
		case crdt.OpCtrAdd:
			err = oracleCtr.Apply(op)
		}
		if err != nil {
			w.Violatef("set-convergence", "oracle rejected %v from %s: %v", op.Kind, site, err)
			return
		}
		if err := members[site].Multicast(&crdt.MsgOp{Doc: "shared", Op: op}, 48); err != nil {
			w.Logf("multicast %s: %v", site, err)
		}
	}

	// Scripted traffic: adds, removes and counter deltas from every site.
	for i := 0; i < 12; i++ {
		i := i
		site := ids[i%len(ids)]
		w.Sim.At(ms(1+3*i), func() {
			bcastOp(site, sets[site].Add(fmt.Sprintf("item-%02d", i)))
			bcastOp(site, ctrs[site].Add(int64(i%5)-1))
		})
	}
	w.Sim.At(ms(40), func() {
		bcastOp("s3", sets["s3"].Remove("item-02"))
	})
	// The add-wins duel: s1 removes "shared-key" (it only observes dots it
	// has seen) in the same instant s2 re-adds it with a fresh dot. The
	// element must survive everywhere.
	w.Sim.At(ms(10), func() { bcastOp("s1", sets["s1"].Add("shared-key")) })
	w.Sim.At(ms(50), func() {
		bcastOp("s1", sets["s1"].Remove("shared-key"))
		bcastOp("s2", sets["s2"].Add("shared-key"))
	})

	// Anti-entropy rounds through the adverse phase, then the links calm
	// down and three clean rounds guarantee the sweep converges every seed.
	gossip := func() {
		for _, id := range ids {
			if err := members[id].Multicast(&crdt.MsgState{Doc: "shared", Set: sets[id].State()}, 96); err != nil {
				w.Logf("gossip %s: %v", id, err)
			}
			if err := members[id].Multicast(&crdt.MsgState{Doc: "shared", Ctr: ctrs[id].State()}, 48); err != nil {
				w.Logf("gossip %s: %v", id, err)
			}
		}
	}
	for _, at := range []int{70, 90, 110, 130} {
		w.Sim.At(ms(at), gossip)
	}
	w.Sim.At(ms(150), func() {
		w.Logf("CALM: links restored")
		for i, a := range ids {
			for _, b := range ids[i+1:] {
				w.Sim.SetBiLink(a, b, netsim.LANLink)
			}
		}
	})
	for _, at := range []int{160, 180, 200} {
		w.Sim.At(ms(at), gossip)
	}

	w.Run()

	want := strings.Join(oracleSet.Elements(), ",")
	for _, id := range ids {
		if got := strings.Join(sets[id].Elements(), ","); got != want {
			w.Violatef("set-convergence", "%s set {%s} != oracle {%s}", id, got, want)
		}
		if got := ctrs[id].Value(); got != oracleCtr.Value() {
			w.Violatef("set-convergence", "%s counter %d != oracle %d", id, got, oracleCtr.Value())
		}
		if sets[id].Held() != 0 || ctrs[id].Held() != 0 {
			w.Violatef("set-convergence", "%s still holds ops back (set %d, ctr %d)",
				id, sets[id].Held(), ctrs[id].Held())
		}
		if !sets[id].Contains("shared-key") {
			w.Violatef("add-wins", "%s lost shared-key: the concurrent remove beat the concurrent add", id)
		}
	}
	if !oracleSet.Contains("shared-key") {
		w.Violatef("add-wins", "the oracle itself lost shared-key")
	}
	w.Logf("final set {%s} counter %d at all replicas", want, oracleCtr.Value())
}
