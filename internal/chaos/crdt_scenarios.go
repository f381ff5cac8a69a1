package chaos

import (
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
		Name:      "reorder-loss-crdt-seq",
		Desc:      "sequence replicas over unordered lossy reordering multicast, reconciled against an oracle that saw every op",
		Invariant: "all replicas converge to the oracle's text with nothing held back, and an insert beside a concurrently deleted character survives the delete",
		Challenge: "real-time cooperation without locking: commutative state survives an adversarial network (paper §5.4)",
		Run:       runReorderLossCRDTSeq,
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

// --- scenario: reorder-loss-crdt-seq ------------------------------------

// stateSize is the size a sequence state is charged on a simulated link:
// a header plus each element's two IDs, rune and tombstone flag.
func stateSize(st *crdt.SeqState) int { return 64 + 16*len(st.Nodes) }

// runeAt returns the visible position of the first rune of text that
// match accepts, or -1.
func runeAt(text string, match func(rune) bool) int {
	for pos, ch := range []rune(text) {
		if match(ch) {
			return pos
		}
	}
	return -1
}

func runReorderLossCRDTSeq(w *World) {
	ids := []string{"s1", "s2", "s3"}
	adverse := netsim.Link{
		Latency: ms(2), Jitter: ms(1) / 2,
		Loss: 0.25, Reorder: 0.2, ReorderDelay: ms(8),
		Bandwidth: 1_250_000,
	}

	seqs := make(map[string]*crdt.Sequence, len(ids))
	for _, id := range ids {
		seqs[id] = crdt.NewSequence(id)
	}
	// The oracle replica sits off the network and applies every op the
	// moment it is generated — the state the group must converge to.
	oracle := crdt.NewSequence("oracle")

	// The document every replica opens with: one marker character, the
	// target of the duel below, present everywhere before the run.
	const marker, beside = '#', '+'
	seed, err := seqs["s1"].Insert(0, marker)
	if err != nil {
		w.Violatef("setup", "%v", err)
		return
	}
	for _, s := range []*crdt.Sequence{seqs["s2"], seqs["s3"], oracle} {
		if err := s.Apply(seed); err != nil {
			w.Violatef("setup", "%v", err)
			return
		}
	}

	w.FullMesh(adverse, ids...)
	members := w.Members(ids, group.Unordered, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(d group.Delivery) {
			var err error
			switch b := d.Body.(type) {
			case *crdt.MsgOp:
				err = seqs[id].Apply(b.Op)
			case *crdt.MsgState:
				err = seqs[id].MergeState(b.Seq)
			}
			if err != nil {
				w.Violatef("seq-convergence", "%s applying %T from %s: %v", id, d.Body, d.From, err)
			}
		}
	})
	if members == nil {
		return
	}

	// Every generated op reaches the oracle instantly and the group via
	// unordered multicast over the adverse links (the sender included: its
	// own loop-back delivery is a duplicate its replica must shrug off).
	bcastOp := func(site string, op crdt.Op, err error) {
		if err == nil {
			err = oracle.Apply(op)
		}
		if err != nil {
			w.Violatef("seq-convergence", "%s editing: %v", site, err)
			return
		}
		if err := members[site].Multicast(&crdt.MsgOp{Doc: "shared", Op: op}, 48); err != nil {
			w.Logf("multicast %s: %v", site, err)
		}
	}

	// Scripted traffic: two inserts from a site per step, then a delete.
	for i := 0; i < 12; i++ {
		i := i
		site := ids[i%len(ids)]
		w.Sim.At(ms(1+3*i), func() {
			s := seqs[site]
			pos := i % (len([]rune(s.Text())) + 1)
			op, err := s.Insert(pos, rune('a'+i))
			bcastOp(site, op, err)
			op, err = s.Insert(pos+1, rune('A'+i))
			bcastOp(site, op, err)
		})
	}
	w.Sim.At(ms(40), func() {
		if pos := runeAt(seqs["s3"].Text(), func(ch rune) bool { return ch != marker }); pos >= 0 {
			op, err := seqs["s3"].Delete(pos)
			bcastOp("s3", op, err)
		}
	})
	// The concurrent duel: s1 deletes the marker in the same instant s2
	// inserts a character right after it. The insert is anchored on an
	// element that is a tombstone everywhere once the delete lands, and it
	// must survive there; the marker must be gone.
	w.Sim.At(ms(50), func() {
		op, err := seqs["s1"].Delete(runeAt(seqs["s1"].Text(), func(ch rune) bool { return ch == marker }))
		bcastOp("s1", op, err)
		op, err = seqs["s2"].Insert(runeAt(seqs["s2"].Text(), func(ch rune) bool { return ch == marker })+1, beside)
		bcastOp("s2", op, err)
	})

	// Anti-entropy rounds through the adverse phase, then the links calm
	// down and three clean rounds guarantee the sweep converges every seed.
	gossip := func() {
		for _, id := range ids {
			st := seqs[id].State()
			if err := members[id].Multicast(&crdt.MsgState{Doc: "shared", Seq: st}, stateSize(st)); err != nil {
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

	want := oracle.Text()
	for _, id := range ids {
		got := seqs[id].Text()
		if got != want {
			w.Violatef("seq-convergence", "%s text %q != oracle %q", id, got, want)
		}
		if seqs[id].Held() != 0 {
			w.Violatef("seq-convergence", "%s still holds %d ops back", id, seqs[id].Held())
		}
		if !strings.ContainsRune(got, beside) || strings.ContainsRune(got, marker) {
			w.Violatef("delete-beside-insert", "%s text %q: want the insert %q kept and the marker %q gone", id, got, beside, marker)
		}
	}
	if !strings.ContainsRune(want, beside) || strings.ContainsRune(want, marker) {
		w.Violatef("delete-beside-insert", "the oracle itself has %q", want)
	}
	w.Logf("final doc %q at all %d replicas", want, len(ids))
}
