package exps

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/txn"
	"repro/internal/workload"
)

// RunF2WallsVsFlow reproduces Figure 2: the same co-authoring workload is
// pushed through (a) serialisable transactions — strict 2PL walls — and
// (b) a Skarra-Zdonik transaction group whose cooperation policy lets
// writes through immediately and notifies the group. Measured: write
// response time (request to application), blocking, deadlock timeouts,
// awareness notifications, and makespan.
func RunF2WallsVsFlow(seed int64) Table {
	users := []string{"alice", "bob", "carol", "dave", "erin", "frank"}
	prof := workload.EditProfile{
		Users: users, DocLen: 8000, Sections: 4, Locality: 0.4,
		ReadRatio: 0, DeleteRate: 0.2, MeanThink: 20 * time.Second, OpsPerUser: 40,
	}
	wallRow := runWalls(seed, prof)
	flowRow := runFlow(seed, prof)
	return Table{
		ID:      "F2",
		Title:   "serialisable walls (2a) vs cooperative information flow (2b)",
		Claim:   "transactions isolate users (zero awareness, blocking, aborts); cooperative access gives immediate response and full information flow",
		Columns: []string{"mode", "ops", "mean response", "blocked ops", "timeout aborts", "awareness events", "makespan"},
		Rows:    [][]string{wallRow, flowRow},
		Notes: []string{
			"6 authors, 4 sections, locality 0.4 (hot shared sections), 40 writes each, 15s hold per write",
			"response = write request to write applied; group-mode writes apply immediately by construction",
		},
	}
}

const f2Hold = 15 * time.Second

type f2User struct {
	name string
	ops  []workload.EditOp
	next int
}

func keyOf(op workload.EditOp) string { return fmt.Sprintf("doc/s%d", op.Section) }

func runWalls(seed int64, prof workload.EditProfile) []string {
	sim := netsim.New(seed, netsim.LANLink) // used purely as a virtual-time scheduler
	store := txn.NewStore()
	mgr := txn.NewManager(store, 2*time.Minute)
	edits := workload.GenerateEdits(sim.Rand(), prof)

	var (
		totalOps  int
		responses time.Duration
		active    = len(prof.Users)
		makespan  time.Duration
	)
	var startUser func(u *f2User)
	doOp := func(u *f2User) {
		if u.next >= len(u.ops) {
			active--
			if sim.Now() > makespan {
				makespan = sim.Now()
			}
			return
		}
		op := u.ops[u.next]
		u.next++
		tx := mgr.Begin(u.name, sim.Now())
		requested := sim.Now()
		finish := func(now time.Duration) {
			responses += now - requested
			totalOps++
			sim.At(f2Hold, func() {
				_ = tx.Commit(sim.Now())
				sim.At(op.Think, func() { startUser(u) })
			})
		}
		tx.OnUnblock = func(now time.Duration) { finish(now) }
		err := tx.Write(keyOf(op), op.Text, sim.Now())
		switch err {
		case nil:
			finish(sim.Now())
		case txn.ErrWouldBlock:
			// finish runs from OnUnblock — unless the deadlock timeout
			// aborts us, handled below via the manager sweep.
		default:
			_ = tx.Abort(sim.Now())
			sim.At(op.Think, func() { startUser(u) })
		}
	}
	startUser = func(u *f2User) { doOp(u) }

	usersState := make([]*f2User, 0, len(prof.Users))
	for _, name := range prof.Users {
		u := &f2User{name: name, ops: edits[name]}
		usersState = append(usersState, u)
		sim.At(time.Duration(sim.Rand().Int63n(int64(10*time.Second))), func() { startUser(u) })
	}
	// Deadlock sweeper: timed-out transactions abort; their users move on.
	aborted := make(map[string]*f2User, len(usersState))
	for _, u := range usersState {
		aborted[u.name] = u
	}
	sim.Every(30*time.Second, func() bool {
		for _, user := range mgr.CheckTimeouts(sim.Now()) {
			if u, ok := aborted[user]; ok {
				u := u
				sim.At(time.Second, func() { startUser(u) })
			}
		}
		return active > 0
	})
	sim.Run()

	st := mgr.Stats()
	mean := time.Duration(0)
	if totalOps > 0 {
		mean = responses / time.Duration(totalOps)
	}
	return []string{
		"serialisable (walls)",
		fmt.Sprintf("%d", totalOps),
		fmtDur(mean),
		fmt.Sprintf("%d", st.Blocks),
		fmt.Sprintf("%d", st.TimeoutAborts),
		"0",
		fmtDur(makespan),
	}
}

func runFlow(seed int64, prof workload.EditProfile) []string {
	sim := netsim.New(seed, netsim.LANLink)
	store := txn.NewStore()
	notifications := 0
	g := txn.NewGroup("paper", store, []txn.Rule{txn.RuleReadAll(false), txn.RuleWriteNotify()},
		func(txn.GroupEvent) { notifications++ })
	for _, u := range prof.Users {
		g.Join(u)
	}
	edits := workload.GenerateEdits(sim.Rand(), prof)

	var (
		totalOps int
		active   = len(prof.Users)
		makespan time.Duration
	)
	var startUser func(u *f2User)
	startUser = func(u *f2User) {
		if u.next >= len(u.ops) {
			active--
			if sim.Now() > makespan {
				makespan = sim.Now()
			}
			return
		}
		op := u.ops[u.next]
		u.next++
		// Writes apply immediately: response time is zero by construction.
		_ = g.Write(u.name, keyOf(op), op.Text, sim.Now())
		totalOps++
		sim.At(f2Hold+op.Think, func() { startUser(u) })
	}
	for _, name := range prof.Users {
		u := &f2User{name: name, ops: edits[name]}
		sim.At(time.Duration(sim.Rand().Int63n(int64(10*time.Second))), func() { startUser(u) })
	}
	sim.Run()
	g.Commit(sim.Now())
	return []string{
		"transaction group (flow)",
		fmt.Sprintf("%d", totalOps),
		fmtDur(0),
		"0",
		"0",
		fmt.Sprintf("%d", notifications),
		fmtDur(makespan),
	}
}
