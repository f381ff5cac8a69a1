package exps

import (
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/floor"
	"repro/internal/locks"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/simworld"
	"repro/internal/workload"
)

// RunE4Mechanisms runs one editing workload through every concurrency
// mechanism the paper surveys: pessimistic 2PL, tickle locks, soft locks,
// notification locks, operation transformation (centrally-ordered GROVE
// style) and floor-control reservation. Measured: edit response time (ask
// to able-to-edit), blocking, the awareness signal each scheme gives
// co-workers, and its measured latency.
func RunE4Mechanisms(seed int64) Table {
	t := Table{
		ID:      "E4",
		Title:   "concurrency control mechanisms for group editing",
		Claim:   "OT gives immediate response (Ellis); lock variants trade blocking for awareness; reservation serialises everything",
		Columns: []string{"mechanism", "mean response", "blocked/queued", "awareness signal", "mean notify", "anomalies"},
	}
	for _, d := range []locks.Discipline{locks.Pessimistic, locks.Tickle, locks.Soft, locks.Notification} {
		t.Rows = append(t.Rows, runLockMechanism(seed, d))
	}
	t.Rows = append(t.Rows, runOTMechanism(seed))
	t.Rows = append(t.Rows, runFloorMechanism(seed))
	t.Notes = append(t.Notes,
		"6 users, paragraph-grain targets, 5s hold, 30% reads; OT runs over a 40ms WAN star",
		"pessimistic locking gives co-workers no signal at all — the Figure 2a pathology")
	return t
}

const (
	e4Hold = 5 * time.Second
)

func e4Profile(users []string) workload.EditProfile {
	return workload.EditProfile{
		Users: users, DocLen: 8000, Sections: 8, Locality: 0.3,
		ReadRatio: 0.3, DeleteRate: 0.2, MeanThink: 8 * time.Second, OpsPerUser: 50,
	}
}

func runLockMechanism(seed int64, d locks.Discipline) []string {
	sim := netsim.New(seed, netsim.LANLink)
	users := []string{"u1", "u2", "u3", "u4", "u5", "u6"}
	edits := workload.GenerateEdits(sim.Rand(), e4Profile(users))

	pending := make(map[string]func(now time.Duration))
	grantAt := make(map[string]time.Duration) // path -> last exclusive grant
	var notifyLats []time.Duration
	var lm *locks.Manager
	lm = locks.NewManager(d, locks.Options{
		TickleIdle: 2 * time.Second,
		Emit: func(e locks.Event) {
			switch e.Type {
			case locks.EvGranted:
				if e.Mode == locks.Exclusive {
					grantAt[e.Path.String()] = e.At
				}
				if fn, ok := pending[e.Who]; ok {
					delete(pending, e.Who)
					fn(e.At)
				}
			case locks.EvRevoked:
				// A dispossessed holder's continuation is already running;
				// nothing to resume.
			case locks.EvChanged:
				if at, ok := grantAt[e.Path.String()]; ok {
					notifyLats = append(notifyLats, e.At-at)
				} else {
					notifyLats = append(notifyLats, 0)
				}
			case locks.EvConflictWarning:
				// Soft-lock warnings reach both parties at the moment of
				// the overlapping acquire: immediate.
				notifyLats = append(notifyLats, 0)
			}
		},
	})

	var responses time.Duration
	var ops int
	var next func(name string, list []workload.EditOp, i int)
	next = func(name string, list []workload.EditOp, i int) {
		if i >= len(list) {
			return
		}
		op := list[i]
		path := grainPath(op.Pos, locks.GrainParagraph)
		mode := locks.Exclusive
		if op.Kind == workload.OpRead {
			mode = locks.Shared
		}
		asked := sim.Now()
		proceed := func(now time.Duration) {
			responses += now - asked
			ops++
			sim.At(e4Hold, func() {
				// The holder may already have been dispossessed (tickle).
				_ = lm.Release(path, name, sim.Now())
				sim.At(op.Think, func() { next(name, list, i+1) })
			})
		}
		res, err := lm.Acquire(path, name, mode, asked)
		if err != nil {
			sim.At(op.Think, func() { next(name, list, i+1) })
			return
		}
		if res.Granted {
			proceed(sim.Now())
		} else {
			pending[name] = proceed
		}
	}
	for _, name := range users {
		name := name
		list := edits[name]
		sim.At(time.Duration(sim.Rand().Int63n(int64(4*time.Second))), func() { next(name, list, 0) })
	}
	sim.Run()

	st := lm.Stats()
	mean := time.Duration(0)
	if ops > 0 {
		mean = responses / time.Duration(ops)
	}
	signal := map[locks.Discipline]string{
		locks.Pessimistic:  "none",
		locks.Tickle:       "tickle on contact",
		locks.Soft:         "conflict warning",
		locks.Notification: "change notification",
	}[d]
	var meanNotify string
	if len(notifyLats) > 0 {
		var sum time.Duration
		for _, l := range notifyLats {
			sum += l
		}
		meanNotify = fmtDur(sum / time.Duration(len(notifyLats)))
	} else {
		meanNotify = "-"
	}
	anomalies := fmt.Sprintf("%d revoked, %d warned, %d notified", st.Revocations, st.Warnings, st.ChangeNotifs)
	return []string{d.String(), fmtDur(mean), fmt.Sprintf("%d", st.Queues), signal, meanNotify, anomalies}
}

// e4Start is the text every OT replica starts from, typed in by the first
// user before the others begin.
const e4Start = "the quick brown fox jumps over the lazy dog"

// runOTMechanism runs the workload through the shipped deployment on the
// simulator: daemon.NewHost as the integration site at the centre of the
// star and one participant per user. A commit's notification time is its
// generation at the author to its arrival at each other user.
func runOTMechanism(seed int64) []string {
	w := simworld.New(seed, netsim.WANLink) // 40ms star around the daemon
	users := []string{"u1", "u2", "u3", "u4", "u5", "u6"}
	edits := workload.GenerateEdits(w.Sim.Rand(), e4Profile(users))
	d, err := w.Daemon(daemon.Config{Mode: "sync", Shards: 1, Engine: engine.OT}, users...)
	if err != nil {
		return []string{"operation transform", "error", "-", "-", "-", err.Error()}
	}
	for i, ch := range []rune(e4Start) {
		d.Edit(users[0], func(doc engine.Doc) ([]engine.Msg, error) { return doc.Insert(i, ch) })
	}
	w.Sim.Run() // every user starts from the whole text

	type opKey struct {
		site string
		seq  uint64
	}
	genTime := make(map[opKey]time.Duration)
	// A client's k-th edit is its submission seq k; the first user's edits
	// follow the starting text's.
	seqs := map[string]uint64{users[0]: uint64(len([]rune(e4Start)))}
	var notifyLats []time.Duration
	codec := engine.NewWireCodec()
	d.Applied = func(user string, it session.Item) {
		_, payload, err := engine.DecodeItemBody(codec, it.Body)
		if m, ok := payload.(*engine.MsgCommit); ok && err == nil && m.C.Site != user {
			if at, ok := genTime[opKey{m.C.Site, m.C.Seq}]; ok {
				notifyLats = append(notifyLats, w.Sim.Now()-at)
			}
		}
	}

	var ops int
	running := len(users)
	var run func(name string, list []workload.EditOp, i int)
	run = func(name string, list []workload.EditOp, i int) {
		if i >= len(list) {
			running--
			return
		}
		wop := list[i]
		if wop.Kind != workload.OpRead { // reads are free in OT
			// The edit applies locally NOW: response 0.
			d.Edit(name, func(doc engine.Doc) ([]engine.Msg, error) {
				n := len([]rune(doc.Text()))
				if wop.Kind == workload.OpDelete && n > 0 {
					return doc.Delete(wop.Pos % n)
				}
				return doc.Insert(wop.Pos%(n+1), 'x')
			})
			if d.Err() == nil {
				ops++
				seqs[name]++
				genTime[opKey{name, seqs[name]}] = w.Sim.Now()
			}
		}
		w.Sim.At(wop.Think, func() { run(name, list, i+1) })
	}
	for _, name := range users {
		name := name
		list := edits[name]
		w.Sim.At(time.Duration(w.Sim.Rand().Int63n(int64(4*time.Second))), func() { run(name, list, 0) })
	}
	// Recovery (cscwctl's /tick): each participant resends and pulls once a
	// second while anyone edits or they differ, for at most a minute after.
	settle := 60
	w.Sim.Every(time.Second, func() bool {
		if running == 0 {
			settle--
		}
		if d.Err() != nil || settle == 0 || running == 0 && d.Converged() {
			return false
		}
		d.Tick()
		return true
	})
	w.Sim.Run()

	var meanNotify string
	if len(notifyLats) > 0 {
		var sum time.Duration
		for _, l := range notifyLats {
			sum += l
		}
		meanNotify = fmtDur(sum / time.Duration(len(notifyLats)))
	} else {
		meanNotify = "-"
	}
	outcome := "all converge"
	switch {
	case d.Err() != nil:
		outcome = d.Err().Error()
	case !d.Converged():
		outcome = "NOT converged"
	}
	return []string{"operation transform", fmtDur(0), "0", "remote op integrated", meanNotify,
		fmt.Sprintf("%d ops, %s", ops, outcome)}
}

func runFloorMechanism(seed int64) []string {
	sim := netsim.New(seed, netsim.LANLink)
	users := []string{"u1", "u2", "u3", "u4", "u5", "u6"}
	edits := workload.GenerateEdits(sim.Rand(), e4Profile(users))
	pending := make(map[string]func(now time.Duration))
	fc, err := floor.NewController(floor.FreeFloor, users, floor.Options{
		Emit: func(e floor.Event) {
			if e.Type == floor.EvGranted {
				if fn, ok := pending[e.User]; ok {
					delete(pending, e.User)
					fn(e.At)
				}
			}
		},
	})
	if err != nil {
		return []string{"floor control", "error", "-", "-", "-", err.Error()}
	}

	var responses time.Duration
	var ops, queued int
	var next func(name string, list []workload.EditOp, i int)
	next = func(name string, list []workload.EditOp, i int) {
		if i >= len(list) {
			return
		}
		op := list[i]
		if op.Kind == workload.OpRead {
			// Reading needs no floor.
			sim.At(op.Think, func() { next(name, list, i+1) })
			return
		}
		asked := sim.Now()
		proceed := func(now time.Duration) {
			responses += now - asked
			ops++
			sim.At(e4Hold, func() {
				_ = fc.Release(name, sim.Now())
				sim.At(op.Think, func() { next(name, list, i+1) })
			})
		}
		granted, err := fc.Request(name, asked)
		if err != nil {
			sim.At(op.Think, func() { next(name, list, i+1) })
			return
		}
		if granted {
			proceed(sim.Now())
		} else {
			queued++
			pending[name] = proceed
		}
	}
	for _, name := range users {
		name := name
		list := edits[name]
		sim.At(time.Duration(sim.Rand().Int63n(int64(4*time.Second))), func() { next(name, list, 0) })
	}
	sim.Run()

	st := fc.Stats()
	mean := time.Duration(0)
	if ops > 0 {
		mean = responses / time.Duration(ops)
	}
	return []string{"floor reservation", fmtDur(mean), fmt.Sprintf("%d", queued), "floor events", "immediate",
		fmt.Sprintf("%d grants, no interleaving", st.Grants)}
}
