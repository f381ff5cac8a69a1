package chaos

import (
	"time"

	"repro/internal/crdt"
	"repro/internal/floor"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/simworld"
	"repro/internal/workload"
)

// The scale scenarios exercise the region-backed topology engine at node
// counts the old per-pair link model could not reach. Their full-size
// worlds (hundreds to a thousand nodes) run under `make chaos-scale`; the
// default CI matrix runs them shrunk by the CHAOS_SCALE divisor (see
// scaleDiv), which keeps every invariant while trimming the clock.

func init() {
	register(Scenario{
		Name:      "federation-crdt-wan",
		Desc:      "two ~100-replica LAN clusters bridged by a single WAN pipe, gossiping CRDT state hub-and-spoke through a WAN outage",
		Invariant: "after the outage heals, every replica in both federations holds the oracle's text exactly, with nothing held back",
		Challenge: "federated organisations: autonomous domains cooperate across one administrative boundary link (paper §4.1, §5.2)",
		Run:       runFederationCRDTWAN,
	})
	register(Scenario{
		Name:      "conference-floor-storm",
		Desc:      "one floor arbiter granting ~1000 speakers who all request within the opening seconds of a conference",
		Invariant: "the floor is held by exactly one speaker at a time, every speaker holds it exactly once, and the queue fully drains",
		Challenge: "floor control at conference scale: a storm of simultaneous requests must serialize without loss or starvation (paper §5.3)",
		Run:       runConferenceFloorStorm,
	})
	register(Scenario{
		Name:      "flash-crowd-join-leave",
		Desc:      "hundreds of members flash-joining a session then churning mid-traffic, posting while present",
		Invariant: "host presence matches the churn script for every member, every post is ledgered, and each client's log is exactly the host log up to its high-water mark",
		Challenge: "dynamic membership: late joiners and leavers must see a consistent session view and recover missed items on rejoin (paper §5.1)",
		Run:       runFlashCrowdJoinLeave,
	})
}

// --- scenario: federation-crdt-wan --------------------------------------

func runFederationCRDTWAN(w *World) {
	per := w.sized("replicas-per-lan", scaled(100, 8), 100)
	lanA := w.Cluster("lan-a", "fa", per, netsim.LANLink)
	lanB := w.Cluster("lan-b", "fb", per, netsim.LANLink)
	w.Isolate(lanA, lanB)
	gwA, gwB := w.Bridge(lanA, lanB, netsim.WANLink)
	all := append(append([]string(nil), lanA.IDs...), lanB.IDs...)

	seqs := make(map[string]*crdt.Sequence, len(all))
	for _, id := range all {
		seqs[id] = crdt.NewSequence(id)
	}
	// The oracle sits off the network and applies every op the moment it is
	// generated — the state both federations must converge to.
	oracle := crdt.NewSequence("oracle")

	for _, id := range all {
		id := id
		w.Endpoint(id).SetHandler(func(from string, payload any, size int) {
			st, ok := payload.(*crdt.MsgState)
			if !ok {
				return
			}
			if err := seqs[id].MergeState(st.Seq); err != nil {
				w.Violatef("federation-convergence", "%s merging from %s: %v", id, from, err)
			}
		})
	}
	apply := func(id string, op crdt.Op, err error) {
		if err == nil {
			err = oracle.Apply(op)
		}
		if err != nil {
			w.Violatef("federation-convergence", "%s editing: %v", id, err)
		}
	}
	insert := func(i int, id string) {
		s := seqs[id]
		op, err := s.Insert(i%(len([]rune(s.Text()))+1), rune('a'+i%26))
		apply(id, op, err)
	}
	// Wave one lands before the outage, wave two during it: both sides keep
	// editing while the bridge is down and must merge the divergence after.
	// Every third replica also deletes a character in wave two.
	for i, id := range all {
		i, id := i, id
		w.Sim.At(ms(1+i%20), func() { insert(i, id) })
		w.Sim.At(ms(40+i%60), func() {
			insert(i, id)
			if i%3 == 0 {
				s := seqs[id]
				op, err := s.Delete(i % len([]rune(s.Text())))
				apply(id, op, err)
			}
		})
	}
	const lastEdit = 100

	w.Sim.At(ms(30), func() {
		w.Logf("WAN OUTAGE: partition lan-a | lan-b")
		w.Sim.Partition(lanA.IDs, lanB.IDs)
	})
	w.Sim.At(ms(120), func() {
		w.Logf("HEAL")
		w.Sim.Heal(lanA.IDs, lanB.IDs)
	})

	// Hub-and-spoke anti-entropy: members push state to their gateway, the
	// gateways exchange over the one WAN pipe, then fan the merged state
	// back out. Full states are idempotent, so jitter reordering and the
	// outage itself cost only rounds, never correctness.
	send := func(from, to string) {
		st := seqs[from].State()
		if err := w.Endpoint(from).Send(to, &crdt.MsgState{Doc: "fed", Seq: st}, stateSize(st)); err != nil {
			w.Logf("gossip %s->%s: %v", from, to, err)
		}
	}
	converged := func() bool {
		want := oracle.Text()
		for _, id := range all {
			if seqs[id].Text() != want {
				return false
			}
		}
		return true
	}
	done := false
	w.Sim.Every(ms(15), func() bool {
		if w.Sim.Now() > ms(1500) {
			return false
		}
		if w.Sim.Now() > ms(lastEdit) && converged() {
			done = true
			w.Logf("both federations converged at %v", w.Sim.Now())
			return false
		}
		for _, c := range []*simworld.Cluster{lanA, lanB} {
			for _, id := range c.IDs[1:] {
				send(id, c.Gateway())
			}
		}
		send(gwA, gwB)
		send(gwB, gwA)
		for _, c := range []*simworld.Cluster{lanA, lanB} {
			for _, id := range c.IDs[1:] {
				send(c.Gateway(), id)
			}
		}
		return true
	})

	w.Run()

	if want, got := 2*len(all), len(oracle.State().Nodes); got != want {
		w.Violatef("federation-convergence", "oracle holds %d elements, want %d; the edits never happened", got, want)
	}
	if !done {
		w.Violatef("federation-convergence", "deadline passed before convergence")
	}
	want := oracle.Text()
	bad := 0
	for _, id := range all {
		if got := seqs[id].Text(); got != want || seqs[id].Held() != 0 {
			bad++
			if bad <= 3 {
				w.Violatef("federation-convergence", "%s: %d chars / held %d vs oracle %d chars",
					id, len([]rune(got)), seqs[id].Held(), len([]rune(want)))
			}
		}
	}
	if bad > 3 {
		w.Violatef("federation-convergence", "... and %d more diverged replicas", bad-3)
	}
	if bad == 0 && done {
		w.Logf("final state: %d chars at all %d replicas across both federations", len([]rune(want)), len(all))
	}
}

// --- scenario: conference-floor-storm -----------------------------------

// Floor-protocol wire messages (speaker <-> arbiter).
type floorReq struct{ User string }
type floorGrant struct{ User string }
type floorRel struct{ User string }

func runConferenceFloorStorm(w *World) {
	n := w.sized("speakers", scaled(1000, 60), 1000)
	// Deterministic handoff latency keeps the grant->hold->release cycle
	// exact; the storm is the stress, not the link.
	lan := netsim.Link{Latency: ms(1), Bandwidth: 12_500_000}
	conf := w.Cluster("conf", "spk", n, lan)
	speakers := append([]string(nil), conf.IDs...)
	arb := w.In(conf, "floord")

	reqs := workload.GenerateFloorStorm(w.Sim.Rand(), speakers, ms(50), ms(2))
	holds := make(map[string]time.Duration, len(reqs))
	for _, rq := range reqs {
		holds[rq.User] = rq.Hold
	}

	// The arbiter-side model: Emit events must describe strictly alternating
	// grant/release pairs — the exactly-one-holder invariant at the source.
	holder := ""
	grantEvents, releaseEvents := 0, 0
	arbEp := w.Endpoint(arb)
	ctrl, err := floor.NewController(floor.FreeFloor, speakers, floor.Options{
		Emit: func(e floor.Event) {
			switch e.Type {
			case floor.EvGranted:
				if holder != "" {
					w.Violatef("exactly-one-holder", "granted to %s while %s still holds the floor", e.User, holder)
				}
				holder = e.User
				grantEvents++
				if err := arbEp.Send(e.User, &floorGrant{User: e.User}, 24); err != nil {
					w.Violatef("floor-storm", "grant to %s: %v", e.User, err)
				}
			case floor.EvReleased:
				if holder != e.User {
					w.Violatef("exactly-one-holder", "release by %s but holder is %q", e.User, holder)
				}
				holder = ""
				releaseEvents++
			}
		},
	})
	if err != nil {
		w.Violatef("setup", "controller: %v", err)
		return
	}
	maxQueue := 0
	arbEp.SetHandler(func(from string, payload any, size int) {
		switch p := payload.(type) {
		case *floorReq:
			if _, err := ctrl.Request(p.User, w.Sim.Now()); err != nil {
				w.Violatef("floor-storm", "request by %s: %v", p.User, err)
			}
			if q := ctrl.QueueLength(); q > maxQueue {
				maxQueue = q
			}
		case *floorRel:
			if err := ctrl.Release(p.User, w.Sim.Now()); err != nil {
				w.Violatef("floor-storm", "release by %s: %v", p.User, err)
			}
		}
	})

	// Speaker side: on grant, hold the floor for the scripted duration, then
	// release. The client-observed holding spans must never overlap.
	type span struct {
		user       string
		start, end time.Duration
	}
	var spans []span
	grants := make(map[string]int, len(speakers))
	for _, id := range speakers {
		id := id
		ep := w.Endpoint(id)
		ep.SetHandler(func(from string, payload any, size int) {
			g, ok := payload.(*floorGrant)
			if !ok || g.User != id {
				return
			}
			grants[id]++
			now := w.Sim.Now()
			spans = append(spans, span{user: id, start: now, end: now + holds[id]})
			w.Sim.At(holds[id], func() {
				if err := ep.Send(arb, &floorRel{User: id}, 24); err != nil {
					w.Violatef("floor-storm", "release send by %s: %v", id, err)
				}
			})
		})
	}

	for _, rq := range reqs {
		rq := rq
		w.Sim.At(rq.At, func() {
			if err := w.Endpoint(rq.User).Send(arb, &floorReq{User: rq.User}, 24); err != nil {
				w.Violatef("floor-storm", "request send by %s: %v", rq.User, err)
			}
		})
	}

	w.Run()

	bad := 0
	for _, id := range speakers {
		if grants[id] != 1 {
			bad++
			if bad <= 3 {
				w.Violatef("floor-storm", "%s was granted the floor %d times, want exactly 1", id, grants[id])
			}
		}
	}
	if bad > 3 {
		w.Violatef("floor-storm", "... and %d more speakers with wrong grant counts", bad-3)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].start <= spans[i-1].end {
			w.Violatef("exactly-one-holder", "%s observed the floor at %v before %s released it at %v",
				spans[i].user, spans[i].start, spans[i-1].user, spans[i-1].end)
		}
	}
	if ctrl.Holder() != "" || ctrl.QueueLength() != 0 {
		w.Violatef("floor-storm", "floor did not drain: holder %q, queue %d", ctrl.Holder(), ctrl.QueueLength())
	}
	st := ctrl.Stats()
	if st.Requests != n || st.Grants != n || grantEvents != n || releaseEvents != n {
		w.Violatef("floor-storm", "requests %d / grants %d / grant events %d / release events %d, want %d each",
			st.Requests, st.Grants, grantEvents, releaseEvents, n)
	}
	w.Logf("storm served: %d grants, mean wait %v, peak queue %d, done at %v",
		st.Grants, st.MeanWait(), maxQueue, w.Sim.Now())
}

// --- scenario: flash-crowd-join-leave -----------------------------------

func runFlashCrowdJoinLeave(w *World) {
	n := w.sized("members", scaled(300, 30), 300)
	// The session client's duplicate filter assumes same-pair FIFO delivery
	// (a gap-skipping lastSeq), which jitter breaks — keep the LAN clean.
	clean := netsim.Link{Latency: ms(1), Bandwidth: 12_500_000}
	crowd := w.Cluster("crowd", "m", n, clean)
	ids := append([]string(nil), crowd.IDs...)
	hostID := w.In(crowd, "crowd-host")
	host, cls := w.Session(hostID, session.Synchronous, ids...)
	rec := recordSession(host, cls, ids)

	// Churn script: everyone flash-joins inside the ramp, then cycles leave/
	// rejoin until the horizon. A floor of 5ms between one user's events
	// leaves room for the join round trip, so a leave never outruns its ack.
	churn := workload.GenerateFlashCrowd(w.Sim.Rand(), ids, ms(10), ms(150), ms(60), ms(40))
	last := make(map[string]time.Duration, len(ids))
	for i := range churn {
		if t, ok := last[churn[i].User]; ok && churn[i].At < t+ms(5) {
			churn[i].At = t + ms(5)
		}
		last[churn[i].User] = churn[i].At
	}
	model := make(map[string]bool, len(ids)) // scripted membership ground truth
	joins, leaves := 0, 0
	for _, ev := range churn {
		ev := ev
		if ev.Join {
			joins++
		} else {
			leaves++
		}
		w.Sim.At(ev.At, func() {
			var err error
			if ev.Join {
				err = cls[ev.User].Join(w.Sim.Now())
			} else {
				err = cls[ev.User].Leave(w.Sim.Now())
			}
			if err != nil {
				w.Violatef("view-consistency", "%s churn at %v (join=%v): %v", ev.User, w.Sim.Now(), ev.Join, err)
			}
			model[ev.User] = ev.Join
		})
	}

	// Traffic rides through the churn: a rotating cohort posts on each tick,
	// but only while actually admitted (join acked, not left).
	posted := 0
	for k := 0; k < 24; k++ {
		k := k
		w.Sim.At(ms(12+5*k), func() {
			for i, id := range ids {
				if i%6 != k%6 || !cls[id].Joined() {
					continue
				}
				if err := cls[id].Post("chat", "tick", w.Sim.Now()); err != nil {
					w.Violatef("session-ledger", "%s post at tick %d: %v", id, k, err)
					continue
				}
				posted++
			}
		})
	}

	w.Run()
	h := host.Host("")

	// Ledger: every accepted post is in the host log, nothing else is.
	if h.LogLen() != posted {
		w.Violatef("session-ledger", "host log holds %d items, %d posts were accepted", h.LogLen(), posted)
	}
	// View consistency: the host's presence map and each client's own notion
	// of membership must both match the churn script's final state.
	bad := 0
	for _, id := range ids {
		online := h.PresenceOf(id) == session.Active
		if online != model[id] || cls[id].Joined() != model[id] {
			bad++
			if bad <= 3 {
				w.Violatef("view-consistency", "%s: script joined=%v, host sees active=%v, client joined=%v",
					id, model[id], online, cls[id].Joined())
			}
		}
	}
	if bad > 3 {
		w.Violatef("view-consistency", "... and %d more members with inconsistent views", bad-3)
	}
	// Completeness, up to each client's high-water mark: a member that left
	// stops hearing, so only those present at the end must be caught up.
	rec.check(w, cls, ids, func(id string) bool { return model[id] })
	present := 0
	for _, id := range ids {
		if model[id] {
			present++
		}
	}
	w.Logf("churn done: %d joins, %d leaves, %d posts, %d/%d present at close, host log %d items",
		joins, leaves, posted, present, len(ids), h.LogLen())
}
