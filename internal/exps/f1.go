package exps

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/simworld"
)

// RunF1SpaceTime reproduces Figure 1 quantitatively: the same cooperative
// exchange (30 posted items over half an hour) is run in each quadrant of
// Johansen's space-time matrix and the partner's notification latency is
// measured. A fifth row measures the cost of the seamless asynchronous-to-
// synchronous transition against tearing the session down and rebuilding it.
func RunF1SpaceTime(seed int64) Table {
	type quadrant struct {
		name    string
		mode    session.Mode
		link    netsim.Link
		pollGap time.Duration
	}
	quads := []quadrant{
		{"same-time / same-place", session.Synchronous, netsim.LocalLink, 0},
		{"same-time / diff-place", session.Synchronous, netsim.WANLink, 0},
		{"diff-time / same-place", session.Asynchronous, netsim.LocalLink, 5 * time.Minute},
		{"diff-time / diff-place", session.Asynchronous, netsim.WANLink, 5 * time.Minute},
	}
	t := Table{
		ID:      "F1",
		Title:   "interaction latency across the groupware space-time matrix",
		Claim:   "latency ordering: face-to-face < sync-distributed < async < async-distributed; mode transitions are cheap",
		Columns: []string{"quadrant", "mode", "mean latency", "p95 latency", "delivered"},
	}
	const posts = 30
	horizon := 30 * time.Minute
	for _, q := range quads {
		lats := runQuadrant(seed, q.mode, q.link, q.pollGap, posts, horizon)
		if len(lats) == 0 {
			continue
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum time.Duration
		for _, l := range lats {
			sum += l
		}
		mean := sum / time.Duration(len(lats))
		p95 := lats[(len(lats)*95)/100]
		t.Rows = append(t.Rows, []string{
			q.name, q.mode.String(), fmtDur(mean), fmtDur(p95), fmt.Sprintf("%d/%d", len(lats), posts),
		})
	}

	// Seamless transition vs session rebuild.
	flushItems, flushTime := transitionCost(seed, false)
	rebuildItems, rebuildTime := transitionCost(seed, true)
	t.Rows = append(t.Rows,
		[]string{"async->sync transition", "flush", fmtDur(flushTime), "-", fmt.Sprintf("%d items", flushItems)},
		[]string{"async->sync transition", "rebuild", fmtDur(rebuildTime), "-", fmt.Sprintf("%d items", rebuildItems)},
	)
	t.Notes = append(t.Notes,
		"async latency is dominated by the 5m poll interval, not the network",
		"flush moves only unseen items; rebuild replays the whole session log")
	return t
}

func runQuadrant(seed int64, mode session.Mode, link netsim.Link, pollGap time.Duration, posts int, horizon time.Duration) []time.Duration {
	w := simworld.New(seed, link)
	sim := w.Sim
	_, clients := w.Session("host", mode, "alice", "bob")

	postTimes := make(map[string]time.Duration)
	var lats []time.Duration
	for _, c := range clients {
		c.OnItem = func(it session.Item) {
			if at, ok := postTimes[it.Body]; ok {
				lats = append(lats, sim.Now()-at)
			}
		}
	}
	clients["alice"].Join(0)
	clients["bob"].Join(0)
	sim.Run()

	rng := sim.Rand()
	for i := 0; i < posts; i++ {
		i := i
		at := time.Duration(rng.Int63n(int64(horizon)))
		sim.At(at, func() {
			body := fmt.Sprintf("item-%d", i)
			postTimes[body] = sim.Now()
			_ = clients["alice"].Post("note", body, sim.Now())
		})
	}
	if mode == session.Asynchronous && pollGap > 0 {
		var poll func()
		poll = func() {
			_ = clients["bob"].Poll(sim.Now())
			if sim.Now() < horizon+2*pollGap {
				sim.At(pollGap, poll)
			}
		}
		sim.At(pollGap, poll)
	}
	sim.Run()
	return lats
}

// transitionCost measures moving an async session with a 40-item backlog
// into synchronous mode: either by the seamless flush, or by tearing down
// and rejoining from scratch (replaying the entire log).
func transitionCost(seed int64, rebuild bool) (items int, elapsed time.Duration) {
	w := simworld.New(seed, netsim.WANLink)
	sim := w.Sim
	host, clients := w.Session("host", session.Asynchronous, "bob", "alice")
	alice, bob := clients["alice"], clients["bob"]
	received := 0
	bob.OnItem = func(session.Item) { received++ }
	alice.Join(0)
	bob.Join(0)
	sim.Run()
	// Bob has seen the first 60 items via polling; 40 more accumulate.
	for i := 0; i < 60; i++ {
		alice.Post("note", fmt.Sprintf("seen-%d", i), sim.Now())
	}
	sim.Run()
	bob.Poll(sim.Now())
	sim.Run()
	for i := 0; i < 40; i++ {
		alice.Post("note", fmt.Sprintf("new-%d", i), sim.Now())
	}
	sim.Run()
	before := received
	start := sim.Now()
	if rebuild {
		// Tear-down: a fresh client (no history) joins a fresh sync session
		// view — the host replays the entire log to it.
		bob2 := session.NewClient(w.Endpoint("bob2"), "host")
		got := 0
		bob2.OnItem = func(session.Item) { got++ }
		host.SetMode(session.Synchronous)
		bob2.Join(sim.Now())
		sim.Run()
		return got, sim.Now() - start
	}
	host.SetMode(session.Synchronous)
	sim.Run()
	return received - before, sim.Now() - start
}
