package chaos

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/txn"
)

// ms is sugar for scheduling scenario scripts on millisecond boundaries.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func init() {
	register(Scenario{
		Name:      "partition-heal-group",
		Desc:      "FIFO multicast under a mid-traffic partition, healed, then repaired via sync points and NACKs",
		Invariant: "every member ends with every sender's messages, in sender order, and no message is unaccounted",
		Challenge: "partial failure: group communication must survive and reconcile network partitions (paper §5.2)",
		Run:       runPartitionHealGroup,
	})
	register(Scenario{
		Name:      "crash-restart-session",
		Desc:      "synchronous session with one participant crashing mid-session, restarting, and rejoining",
		Invariant: "membership re-converges and every participant ends with the full host log (minus own items), in order",
		Challenge: "partial failure and dynamic membership: sessions outlive individual node failures (paper §5.2)",
		Run:       runCrashRestartSession,
	})
	register(Scenario{
		Name:      "loss-resync-ot",
		Desc:      "three OT replicas editing through a central server over lossy, jittery links with periodic resync",
		Invariant: "all replica documents converge to the server document with nothing pending",
		Challenge: "real-time cooperation without locking: optimistic concurrency must converge despite loss (paper §5.4)",
		Run:       runLossResyncOT,
	})
	register(Scenario{
		Name:      "reorder-total-order",
		Desc:      "sequencer-based total order over links that probabilistically reorder messages",
		Invariant: "all members deliver the identical gapless global sequence",
		Challenge: "group communication: ordering guarantees must hold over an adversarial network (paper §5.3)",
		Run:       runReorderTotalOrder,
	})
	register(Scenario{
		Name:      "reorder-loss-batched-order",
		Desc:      "batched sequencer total order over reordering links, with one member's inbound links turning lossy mid-run",
		Invariant: "unaffected members deliver the complete gapless sequence, the lossy member a gapless agreeing prefix, batches stay contiguous, and every dropped frame is accounted",
		Challenge: "scalability: amortising the ordering round trip with batches must not weaken the ordering guarantee (paper §5.3)",
		Run:       runReorderLossBatchedOrder,
	})
	register(Scenario{
		Name:      "stall-causal-group",
		Desc:      "causal multicast with question/answer chains while one member's handler stalls on every delivery",
		Invariant: "cause precedes effect at every member even when delivery into the application is slow",
		Challenge: "synchronous interaction under degraded responsiveness: causality is not timing-dependent (paper §5.3)",
		Run:       runStallCausalGroup,
	})
	register(Scenario{
		Name:      "partition-txn-flow",
		Desc:      "transaction-group cooperation with awareness notifications through a partition, then a serialisable deadlock",
		Invariant: "group work flows through the partition (notifications drop but are accounted); 2PL walls abort on deadlock and only committed state survives",
		Challenge: "concurrency control: information flow between users versus transaction walls (paper §5.5, Figure 2)",
		Run:       runPartitionTxnFlow,
	})
	register(Scenario{
		Name:      "session-mode-churn",
		Desc:      "session switching sync/async modes with presence churn over links that lose a quarter of client traffic",
		Invariant: "after the churn settles every participant has the complete ordered log and agrees on mode and presence",
		Challenge: "seamless movement around the space-time matrix despite an unreliable network (paper §5.1, Figure 1)",
		Run:       runSessionModeChurn,
	})
	register(Scenario{
		Name:      "induced-drop-blindness",
		Desc:      "unordered multicast with a 50% send-fault injector and a deliberately unachievable no-loss invariant",
		Invariant: "INTENTIONALLY BROKEN: asserts lossless delivery through a lossy injector, to exercise violation reporting",
		Challenge: "harness self-test: a violated invariant must print a replayable seed",
		Broken:    true,
		Run:       runInducedDropBlindness,
	})
}

// --- scenario: partition-heal-group -------------------------------------

func runPartitionHealGroup(w *World) {
	ids := []string{"g1", "g2", "g3", "g4"}
	const msgs = 10
	deliv := make(map[string][]string)
	members := w.Members(ids, group.FIFO, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(d group.Delivery) {
			deliv[id] = append(deliv[id], fmt.Sprintf("%s:%v", d.From, d.Body))
		}
	})
	if members == nil {
		return
	}
	for i := 0; i < msgs; i++ {
		i := i
		w.Sim.At(ms(1+2*i), func() {
			for _, id := range ids {
				if err := members[id].Multicast(fmt.Sprintf("m%02d", i), 32); err != nil {
					w.Logf("multicast %s/m%02d partial: %v", id, i, err)
				}
			}
		})
	}
	w.Sim.At(ms(12), func() {
		w.Logf("PARTITION {g1,g2} | {g3,g4}")
		w.Sim.Partition([]string{"g1", "g2"}, []string{"g3", "g4"})
	})
	w.Sim.At(ms(60), func() {
		w.Logf("HEAL")
		w.Sim.Heal([]string{"g1", "g2"}, []string{"g3", "g4"})
	})
	// Post-heal recovery rounds: high-water advertisements reveal tail
	// loss, repair requests re-arm damped NACKs.
	for _, at := range []int{70, 95, 120} {
		at := at
		w.Sim.At(ms(at), func() {
			for _, id := range ids {
				if err := members[id].SyncPoint(); err != nil {
					w.Logf("syncpoint %s: %v", id, err)
				}
			}
		})
		w.Sim.At(ms(at+10), func() {
			for _, id := range ids {
				members[id].RequestRepair()
			}
		})
	}
	w.Run()
	for _, sender := range ids {
		want := make([]string, 0, msgs)
		for i := 0; i < msgs; i++ {
			want = append(want, fmt.Sprintf("%s:m%02d", sender, i))
		}
		// "!expected" sorts before every member id, making the reference
		// sequence the comparison baseline.
		got := map[string][]string{"!expected": want}
		for _, id := range ids {
			var seq []string
			for _, d := range deliv[id] {
				if strings.HasPrefix(d, sender+":") {
					seq = append(seq, d)
				}
			}
			got[id] = seq
		}
		checkSameSequences(w, "fifo-convergence", got)
	}
}

// --- scenario: crash-restart-session ------------------------------------

func runCrashRestartSession(w *World) {
	clients := []string{"alice", "bob", "carol"}
	// Zero-jitter links: the session layer's client-side dedup assumes
	// same-pair FIFO delivery (a gap-skipping lastSeq), which jitter breaks.
	clean := netsim.Link{Latency: time.Millisecond, Bandwidth: 1_250_000}
	w.Star("host", clean, clean, clients...)
	h, cls := w.Session("host", session.Synchronous, clients...)
	var hostItems []session.Item
	h.OnItem = func(it session.Item) { hostItems = append(hostItems, it) }
	got := make(map[string][]string)
	for _, id := range clients {
		id := id
		cls[id].OnItem = func(it session.Item) {
			got[id] = append(got[id], fmtItem(it))
		}
	}
	for i, id := range clients {
		id := id
		w.Sim.At(time.Duration(i+1)*300*time.Microsecond, func() {
			if err := cls[id].Join(w.Sim.Now()); err != nil {
				w.Violatef("setup", "join %s: %v", id, err)
			}
		})
	}
	const posts = 12
	for i := 0; i < posts; i++ {
		for j, id := range clients {
			i, id := i, id
			w.Sim.At(ms(3+3*i)+time.Duration(j)*300*time.Microsecond, func() {
				if w.Sim.Crashed(id) {
					return // a dead process does not type
				}
				if err := cls[id].Post("edit", fmt.Sprintf("%s-%02d", id, i), w.Sim.Now()); err != nil {
					w.Logf("post %s-%02d failed: %v", id, i, err)
				}
			})
		}
	}
	w.Sim.At(ms(15), func() { w.Logf("CRASH carol"); w.Sim.Crash("carol") })
	w.Sim.At(ms(45), func() { w.Logf("RESTART carol"); w.Sim.Restart("carol") })
	w.Sim.At(ms(46), func() {
		// Rejoin resumes from the client's last seen sequence number; the
		// join acknowledgement replays the missed backlog.
		if err := cls["carol"].Join(w.Sim.Now()); err != nil {
			w.Violatef("session-completeness", "carol rejoin: %v", err)
		}
	})
	w.Sim.At(ms(50), func() {
		for _, id := range clients {
			if err := cls[id].Post("edit", id+"-final", w.Sim.Now()); err != nil {
				w.Logf("final post %s failed: %v", id, err)
			}
		}
	})
	w.Run()
	gotMembers := h.Members()
	if fmt.Sprint(gotMembers) != fmt.Sprint(clients) {
		w.Violatef("membership-agreement", "host members %v, want %v", gotMembers, clients)
	}
	for _, id := range clients {
		if !cls[id].Joined() {
			w.Violatef("membership-agreement", "%s not joined at end", id)
		}
	}
	for _, id := range clients {
		var want []string
		for _, it := range hostItems {
			if it.From != id {
				want = append(want, fmtItem(it))
			}
		}
		checkSameSequences(w, "session-completeness",
			map[string][]string{"!expected": want, id: got[id]})
	}
}

func fmtItem(it session.Item) string {
	return fmt.Sprintf("%03d:%s:%s", it.Seq, it.From, it.Body)
}

// --- scenario: loss-resync-ot -------------------------------------------

func runLossResyncOT(w *World) {
	const server = "doc-server"
	sites := []string{"ot-a", "ot-b", "ot-c"}
	const opsPerSite = 8
	lossy := netsim.Link{Latency: time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.2, Bandwidth: 1_250_000}
	w.Star(server, lossy, lossy, sites...)
	// The shipped OT binding, server site first: submissions, commit fan-out,
	// the hold-back map and the resend + pull recovery round are engine.Doc's.
	reps, err := w.Replicas(engine.OT, append([]string{server}, sites...)...)
	if err != nil {
		w.Violatef("setup", "%v", err)
		return
	}
	for i := 0; i < opsPerSite; i++ {
		for j, s := range sites {
			s := s
			ch := rune('a' + j)
			w.Sim.At(ms(2+3*i)+time.Duration(j)*500*time.Microsecond, func() { reps.Insert(s, 0, ch) })
		}
	}
	// Resync loop: every client resends its unacknowledged submission and
	// pulls missed commits until all of them have caught up with the server.
	w.Sim.Every(25*time.Millisecond, func() bool {
		if w.Sim.Now() > 600*time.Millisecond {
			w.Logf("resync loop gave up")
			return false
		}
		if reps.Converged() {
			return false
		}
		reps.Tick()
		return true
	})
	w.Run()
	if err := reps.Err(); err != nil {
		w.Violatef("ot-convergence", "%v", err)
	}
	final := reps.Docs[server].Text()
	w.Logf("server document: %q", final)
	if got, want := len([]rune(final)), len(sites)*opsPerSite; got != want {
		w.Violatef("ot-convergence", "server document has %d runes, want %d", got, want)
	}
	for _, s := range sites {
		d := reps.Docs[s]
		if d.Text() != final {
			w.Violatef("ot-convergence", "%s document %q != server %q", s, d.Text(), final)
		}
		if n := d.Pending(); n != 0 {
			w.Violatef("ot-convergence", "%s still has %d operations pending or held back", s, n)
		}
	}
}

// --- scenario: reorder-total-order --------------------------------------

func runReorderTotalOrder(w *World) {
	ids := []string{"t1", "t2", "t3"}
	const msgs = 15
	link := netsim.Link{
		Latency: time.Millisecond, Jitter: time.Millisecond,
		Reorder: 0.3, ReorderDelay: 4 * time.Millisecond, Bandwidth: 1_250_000,
	}
	w.FullMesh(link, ids...)
	deliv := make(map[string][]string)
	members := w.Members(ids, group.TotalSequencer, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(d group.Delivery) {
			deliv[id] = append(deliv[id], fmt.Sprintf("%03d:%s:%v", d.Seq, d.From, d.Body))
		}
	})
	if members == nil {
		return
	}
	for i := 0; i < msgs; i++ {
		i := i
		w.Sim.At(ms(1+2*i), func() {
			for _, id := range ids {
				if err := members[id].Multicast(fmt.Sprintf("%s-%02d", id, i), 24); err != nil {
					w.Logf("multicast %s-%02d partial: %v", id, i, err)
				}
			}
		})
	}
	w.Run()
	checkSameSequences(w, "total-order", deliv)
	total := msgs * len(ids)
	if n := len(deliv[ids[0]]); n != total {
		w.Violatef("total-order", "%s delivered %d messages, want %d", ids[0], n, total)
	}
	for i, e := range deliv[ids[0]] {
		if !strings.HasPrefix(e, fmt.Sprintf("%03d:", i+1)) {
			w.Violatef("total-order", "global sequence has a gap at position %d: %q", i, e)
			break
		}
	}
}

// --- scenario: reorder-loss-batched-order -------------------------------

// runReorderLossBatchedOrder drives the batched ordering hot path through
// an adversarial network. Four members multicast in bursts sized to the
// batch limit, so every burst travels as exactly one kBatch packet and the
// sequencer announces each batch with a single contiguous kOrder run. The
// links reorder aggressively the whole time; mid-run, every link INTO bo3
// turns lossy, then heals. Loss toward one receiver cannot disturb the
// others — they must still deliver the complete gapless global sequence —
// while bo3, which has no repair protocol for total-order data, may stall
// but must never diverge: its deliveries form a gapless prefix of the
// common sequence. Batches must occupy contiguous runs of that sequence at
// every member, and the world's drop accounting must absorb the link loss.
func runReorderLossBatchedOrder(w *World) {
	ids := []string{"bo1", "bo2", "bo3", "bo4"} // bo1 is the sequencer
	const lossy = "bo3"
	const burstMsgs = 4 // == Batch.MaxMsgs: one burst flushes as one kBatch
	link := netsim.Link{
		Latency: time.Millisecond, Jitter: time.Millisecond,
		Reorder: 0.35, ReorderDelay: 4 * time.Millisecond, Bandwidth: 1_250_000,
	}
	lossyLink := link
	lossyLink.Loss = 0.4
	w.FullMesh(link, ids...)

	type entry struct {
		seq   uint64
		event string // "seq:from:body" for prefix agreement
		batch string // "from/wNN": the wire batch this delivery belongs to
	}
	deliv := make(map[string][]entry)
	members := w.Members(ids, group.TotalSequencer, group.BatchConfig{MaxMsgs: burstMsgs}, func(id string) func(group.Delivery) {
		return func(d group.Delivery) {
			body := fmt.Sprintf("%v", d.Body)
			deliv[id] = append(deliv[id], entry{
				seq:   d.Seq,
				event: fmt.Sprintf("%03d:%s:%s", d.Seq, d.From, body),
				batch: d.From + "/" + body[:3], // body is "wNN-mK"
			})
		}
	})
	if members == nil {
		return
	}

	// Bursts before, during, and after the loss window. The tail burst is
	// deliberately smaller than MaxMsgs so it only leaves the accumulation
	// buffer when the scheduled Flush pushes it out.
	bursts := []struct{ at, n int }{
		{1, burstMsgs}, {5, burstMsgs}, {9, burstMsgs}, // pre-loss
		{48, burstMsgs}, {52, burstMsgs}, {56, burstMsgs}, {60, burstMsgs}, // lossy
		{80, burstMsgs}, {84, burstMsgs}, // healed
		{88, burstMsgs / 2}, // tail: flushed manually below
	}
	total := 0
	for bi, burst := range bursts {
		bi, burst := bi, burst
		total += burst.n * len(ids)
		w.Sim.At(ms(burst.at), func() {
			for _, id := range ids {
				for i := 0; i < burst.n; i++ {
					if err := members[id].Multicast(fmt.Sprintf("w%02d-m%d", bi, i), 24); err != nil {
						w.Logf("multicast %s w%02d-m%d partial: %v", id, bi, i, err)
					}
				}
			}
		})
	}
	w.Sim.At(ms(45), func() {
		for _, a := range ids {
			if a != lossy {
				w.Sim.SetLink(a, lossy, lossyLink)
			}
		}
		w.Logf("links into %s turn lossy (%.0f%%)", lossy, lossyLink.Loss*100)
	})
	w.Sim.At(ms(70), func() {
		for _, a := range ids {
			if a != lossy {
				w.Sim.SetLink(a, lossy, link)
			}
		}
		w.Logf("links into %s healed", lossy)
	})
	w.Sim.At(ms(94), func() {
		for _, id := range ids {
			members[id].Flush()
		}
	})
	w.Run()

	// Reference sequence: the longest delivered log. Unaffected members
	// must have everything; the lossy member a prefix.
	ref := deliv[ids[0]]
	for _, id := range ids[1:] {
		if len(deliv[id]) > len(ref) {
			ref = deliv[id]
		}
	}
	if len(ref) != total {
		w.Violatef("batched-order", "longest log has %d deliveries, want %d", len(ref), total)
	}
	for _, id := range ids {
		log := deliv[id]
		if id != lossy && len(log) != total {
			w.Violatef("batched-order", "%s delivered %d of %d despite lossless links", id, len(log), total)
		}
		for i, e := range log {
			if e.seq != uint64(i+1) {
				w.Violatef("batched-order", "%s has a sequence gap at position %d: %q", id, i, e.event)
				break
			}
			if e.event != ref[i].event {
				w.Violatef("batched-order", "divergence at seq %d: %s saw %q, reference %q", i+1, id, e.event, ref[i].event)
				break
			}
		}
		// Batch contiguity: once the delivered sequence moves past a wire
		// batch, that batch must never resume — the sequencer assigns each
		// kBatch one contiguous run, and interleaving would mean it split.
		seen := make(map[string]bool)
		prev := ""
		for _, e := range log {
			if e.batch != prev {
				if seen[e.batch] {
					w.Violatef("batch-contiguity", "%s saw batch %s resume after interleaving (at %q)", id, e.batch, e.event)
					break
				}
				seen[e.batch] = true
				prev = e.batch
			}
		}
	}
	w.Logf("delivered: %s=%d %s=%d %s=%d %s=%d (total %d)",
		ids[0], len(deliv[ids[0]]), ids[1], len(deliv[ids[1]]),
		ids[2], len(deliv[ids[2]]), ids[3], len(deliv[ids[3]]), total)
}

// --- scenario: stall-causal-group ---------------------------------------

func runStallCausalGroup(w *World) {
	ids := []string{"c1", "c2", "c3"}
	const rounds = 3
	deliv := make(map[string][]string)
	w.Stall("c3").Hold(10 * time.Millisecond)
	var members map[string]*group.Member
	members = w.Members(ids, group.Causal, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(d group.Delivery) {
			deliv[id] = append(deliv[id], fmt.Sprintf("%s:%v", d.From, d.Body))
			// c2 answers every question it sees: the answer is causally
			// after the question, whatever the network does.
			if s, ok := d.Body.(string); ok && id == "c2" && d.From == "c1" && strings.HasPrefix(s, "q") {
				if err := members["c2"].Multicast("a"+s[1:], 16); err != nil {
					w.Logf("answer %s partial: %v", s, err)
				}
			}
		}
	})
	if members == nil {
		return
	}
	for r := 0; r < rounds; r++ {
		r := r
		w.Sim.At(ms(5+10*r), func() {
			if err := members["c1"].Multicast(fmt.Sprintf("q%d", r), 16); err != nil {
				w.Logf("question q%d partial: %v", r, err)
			}
		})
		w.Sim.At(ms(6+10*r), func() {
			if err := members["c3"].Multicast(fmt.Sprintf("x%d", r), 16); err != nil {
				w.Logf("concurrent x%d partial: %v", r, err)
			}
		})
	}
	w.Run()
	checkSameSets(w, "causal-order", deliv)
	for _, id := range ids {
		pos := make(map[string]int)
		for i, e := range deliv[id] {
			pos[e] = i
		}
		for r := 0; r < rounds; r++ {
			q, a := fmt.Sprintf("c1:q%d", r), fmt.Sprintf("c2:a%d", r)
			qi, qok := pos[q]
			ai, aok := pos[a]
			if qok && aok && ai < qi {
				w.Violatef("causal-order", "%s delivered answer %q before question %q", id, a, q)
			}
		}
	}
	if n := w.Stall("c3").Stalled(); n == 0 {
		w.Violatef("causal-order", "stall injector never fired; scenario exercised nothing")
	} else {
		w.Logf("c3 handler stalled %d deliveries", n)
	}
}

// --- scenario: partition-txn-flow ---------------------------------------

func runPartitionTxnFlow(w *World) {
	users := []string{"u1", "u2"}
	nodeOf := map[string]string{"u1": "txn-u1", "u2": "txn-u2"}
	coord := w.Endpoint("txn-coord")
	recvd := make(map[string][]string)
	for _, u := range users {
		u := u
		ep := w.Endpoint(nodeOf[u])
		ep.SetHandler(func(from string, payload any, size int) {
			if ev, ok := payload.(txn.GroupEvent); ok {
				recvd[u] = append(recvd[u], fmt.Sprintf("%s:%s=%s", ev.User, ev.Key, ev.Value))
			}
		})
	}
	var notifSent, notifLost int
	parent := txn.NewStore()
	grp := txn.NewGroup("paper", parent,
		[]txn.Rule{txn.RuleReadAll(false), txn.RuleWriteNotify()},
		func(ev txn.GroupEvent) {
			notifSent++
			if err := coord.Send(nodeOf[ev.To], ev, 48); err != nil {
				notifLost++
				w.Logf("awareness to %s lost: %v", ev.To, err)
			}
		})
	grp.Join("u1")
	grp.Join("u2")
	mustWrite := func(user, key, val string) {
		if err := grp.Write(user, key, val, w.Sim.Now()); err != nil {
			w.Violatef("flow-not-walled", "group write %s by %s failed: %v", key, user, err)
		}
	}
	w.Sim.At(ms(1), func() { mustWrite("u1", "doc/intro", "draft-1") })
	w.Sim.At(ms(10), func() {
		w.Logf("PARTITION coordinator | u2's node")
		w.Sim.Partition([]string{"txn-coord", "txn-u1"}, []string{"txn-u2"})
	})
	w.Sim.At(ms(12), func() { mustWrite("u1", "doc/body", "draft-2") })
	w.Sim.At(ms(14), func() { mustWrite("u1", "doc/refs", "draft-3") })
	w.Sim.At(ms(15), func() {
		// Cooperation is not walled off by the partition: the shared group
		// store still answers, even though awareness traffic is dying.
		v, err := grp.Read("u2", "doc/intro", w.Sim.Now())
		if err != nil || v != "draft-1" {
			w.Violatef("flow-not-walled", "mid-partition read = %q, %v; want draft-1", v, err)
		}
	})
	w.Sim.At(ms(25), func() {
		w.Logf("HEAL")
		w.Sim.Heal([]string{"txn-coord", "txn-u1"}, []string{"txn-u2"})
	})
	w.Sim.At(ms(30), func() { mustWrite("u2", "doc/notes", "seen-it") })
	w.Sim.At(ms(35), func() {
		n := grp.Commit(w.Sim.Now())
		w.Logf("group commit merged %d keys", n)
	})

	// The serialisable side of Figure 2: the same store behind 2PL walls.
	mgr := txn.NewManager(parent, 20*time.Millisecond)
	var ta, tb *txn.Txn
	w.Sim.At(ms(40), func() {
		now := w.Sim.Now()
		ta = mgr.Begin("alice", now)
		tb = mgr.Begin("bob", now)
		if err := ta.Write("x", "ax", now); err != nil {
			w.Violatef("serialisability", "alice write x: %v", err)
		}
		if err := tb.Write("y", "by", now); err != nil {
			w.Violatef("serialisability", "bob write y: %v", err)
		}
	})
	w.Sim.At(ms(42), func() {
		if err := ta.Write("y", "ay", w.Sim.Now()); !errors.Is(err, txn.ErrWouldBlock) {
			w.Violatef("serialisability", "alice write y = %v, want ErrWouldBlock", err)
		}
	})
	w.Sim.At(ms(43), func() {
		if err := tb.Write("x", "bx", w.Sim.Now()); !errors.Is(err, txn.ErrWouldBlock) {
			w.Violatef("serialisability", "bob write x = %v, want ErrWouldBlock (deadlock formed)", err)
		}
	})
	w.Sim.At(ms(70), func() {
		aborted := mgr.CheckTimeouts(w.Sim.Now())
		w.Logf("deadlock detector aborted %d transactions", len(aborted))
		if len(aborted) != 2 {
			w.Violatef("serialisability", "timeout aborted %d transactions, want the deadlocked 2", len(aborted))
		}
	})
	w.Sim.At(ms(72), func() {
		now := w.Sim.Now()
		tc := mgr.Begin("carol", now)
		if err := tc.Write("x", "cx", now); err != nil {
			w.Violatef("serialisability", "carol write x after aborts: %v", err)
		}
		if err := tc.Commit(now); err != nil {
			w.Violatef("serialisability", "carol commit: %v", err)
		}
	})
	w.Run()
	if v, _ := parent.Get("x"); v != "cx" {
		w.Violatef("serialisability", "parent x = %q, want only carol's committed cx", v)
	}
	if v, ok := parent.Get("y"); ok {
		w.Violatef("serialisability", "parent y = %q survives, but bob's transaction aborted", v)
	}
	if v, _ := parent.Get("doc/intro"); v != "draft-1" {
		w.Violatef("flow-not-walled", "group commit did not reach parent: doc/intro = %q", v)
	}
	st := mgr.Stats()
	if st.TimeoutAborts != 2 || st.Blocks < 2 {
		w.Violatef("serialisability", "stats timeoutAborts=%d blocks=%d, want 2 and >=2", st.TimeoutAborts, st.Blocks)
	}
	gs := grp.Stats()
	if gs.Notifications != notifSent {
		w.Violatef("awareness-accounting", "group reported %d notifications, callback saw %d", gs.Notifications, notifSent)
	}
	delivered := len(recvd["u1"]) + len(recvd["u2"])
	if notifSent != delivered+notifLost {
		w.Violatef("awareness-accounting", "notifications sent %d != delivered %d + lost %d", notifSent, delivered, notifLost)
	}
	if notifLost == 0 {
		w.Violatef("awareness-accounting", "partition lost no awareness traffic; scenario exercised nothing")
	}
	w.Logf("awareness: sent=%d delivered=%d lost-to-partition=%d", notifSent, delivered, notifLost)
}

// --- scenario: session-mode-churn ---------------------------------------

func runSessionModeChurn(w *World) {
	clients := []string{"ann", "ben", "cat"}
	// Client→host traffic loses a quarter of messages; host→client stays
	// clean and jitter-free so the session layer's FIFO dedup assumption
	// holds (lost *posts* and *polls* are the chaos here, recovered by the
	// session layer's store-and-forward polling).
	clean := netsim.Link{Latency: time.Millisecond, Bandwidth: 1_250_000}
	lossyUp := clean
	lossyUp.Loss = 0.25
	w.Star("host", lossyUp, clean, clients...)
	h, cls := w.Session("host", session.Synchronous, clients...)
	var hostItems []session.Item
	h.OnItem = func(it session.Item) { hostItems = append(hostItems, it) }
	got := make(map[string][]string)
	for _, id := range clients {
		id := id
		cls[id].OnItem = func(it session.Item) { got[id] = append(got[id], fmtItem(it)) }
	}
	for _, mode := range []struct {
		at int
		to session.Mode
	}{{100, session.Asynchronous}, {200, session.Synchronous}, {300, session.Asynchronous}, {400, session.Synchronous}} {
		mode := mode
		w.Sim.At(ms(mode.at), func() {
			w.Logf("MODE -> %v", mode.to)
			h.SetMode(mode.to)
		})
	}
	post := 0
	for at := 5; at < 390; at += 10 {
		at := at
		w.Sim.At(ms(at), func() {
			for _, id := range clients {
				if !cls[id].Joined() {
					continue
				}
				post++
				// The post itself may be lost upstream; the host log is the
				// ground truth the completeness check compares against.
				_ = cls[id].Post("edit", fmt.Sprintf("%s-%03d", id, post), w.Sim.Now())
			}
		})
	}
	converged := func() bool {
		own := make(map[string]int)
		for _, it := range hostItems {
			own[it.From]++
		}
		for _, id := range clients {
			if !cls[id].Joined() || len(got[id]) != len(hostItems)-own[id] {
				return false
			}
		}
		return true
	}
	// Driver loop: retry joins (the join itself can be lost), steer ben's
	// presence churn, and poll — the recovery path for everything the lossy
	// uplink ate.
	w.Sim.Every(10*time.Millisecond, func() bool {
		now := w.Sim.Now()
		if now > 900*time.Millisecond {
			w.Logf("churn loop gave up")
			return false
		}
		for _, id := range clients {
			if !cls[id].Joined() {
				_ = cls[id].Join(now)
				continue
			}
			_ = cls[id].Poll(now)
		}
		switch {
		case now >= ms(150) && now < ms(250):
			if h.PresenceOf("ben") != session.Away {
				_ = cls["ben"].SetPresence(session.Away, now)
			}
		case now >= ms(250):
			if h.PresenceOf("ben") != session.Active {
				_ = cls["ben"].SetPresence(session.Active, now)
			}
		}
		return now < ms(420) || !converged()
	})
	w.Run()
	if !converged() {
		w.Violatef("session-completeness", "clients never converged on the host log (%d items)", len(hostItems))
	}
	for _, id := range clients {
		var want []string
		for _, it := range hostItems {
			if it.From != id {
				want = append(want, fmtItem(it))
			}
		}
		checkSameSequences(w, "session-completeness",
			map[string][]string{"!expected": want, id: got[id]})
	}
	if h.Mode() != session.Synchronous {
		w.Violatef("mode-agreement", "host ended in mode %v, want synchronous", h.Mode())
	}
	for _, id := range clients {
		if cls[id].Mode() != h.Mode() {
			w.Violatef("mode-agreement", "%s believes mode %v, host %v", id, cls[id].Mode(), h.Mode())
		}
	}
	if st := h.Stats(); st.ModeSwitches != 4 {
		w.Violatef("mode-agreement", "host counted %d mode switches, want 4", st.ModeSwitches)
	}
	if p := h.PresenceOf("ben"); p != session.Active {
		w.Violatef("mode-agreement", "ben's presence ended %v, want active", p)
	}
	w.Logf("host log %d items after churn", len(hostItems))
}

// --- scenario: induced-drop-blindness (deliberately broken) --------------

func runInducedDropBlindness(w *World) {
	ids := []string{"b1", "b2"}
	const msgs = 20
	w.Faults("b1").DropProb(0.5)
	deliv := make(map[string][]string)
	members := w.Members(ids, group.Unordered, group.BatchConfig{}, func(id string) func(group.Delivery) {
		return func(d group.Delivery) {
			deliv[id] = append(deliv[id], fmt.Sprintf("%s:%v", d.From, d.Body))
		}
	})
	if members == nil {
		return
	}
	for i := 0; i < msgs; i++ {
		i := i
		w.Sim.At(ms(1+i), func() {
			if err := members["b1"].Multicast(fmt.Sprintf("m%02d", i), 16); err != nil {
				w.Logf("multicast m%02d partial: %v", i, err)
			}
		})
	}
	w.Run()
	want := make([]string, 0, msgs)
	for i := 0; i < msgs; i++ {
		want = append(want, fmt.Sprintf("b1:m%02d", i))
	}
	// Unordered multicast over a fault injector has no recovery protocol:
	// this demands lossless delivery anyway, so it must trip.
	checkCompleteSet(w, "no-loss", "b2", deliv["b2"], want)
}
