package load

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
)

// Workload is one named traffic shape. Documents × participants is in the
// name; Why says what it is for.
type Workload struct {
	Name string
	Why  string

	Engine  string // engine.CRDT or engine.OT; empty for the group workload
	Docs    int
	PerDoc  int // editors per document (group: members)
	Roamers int // extra participants that leave and rejoin, one document only

	// Rate is the open-loop issue rate in op/s; 0 makes the loop closed: each
	// editor issues its next op when every timed peer has applied the previous
	// one. The end-to-end metrics are always measured on the closed loop (see
	// RunUntraced); Rate shapes the traced run and its untraced companion.
	Rate int
	// ClosedRate sizes a closed-loop rep, about what the reference box sustains
	// in op/s: ops = ClosedRate × repSeconds (an open-loop rep is Rate × seconds
	// ÷ 3 ops). Op counts are fixed by the flags, never by how fast the program
	// ran — CRDT edit cost grows with tombstones, so only equal counts compare.
	ClosedRate int
}

// Roamer schedule: away for roamAway issued ops, back for roamStay, the
// second roamer offset by roamOffset.
const (
	roamAway   = 400
	roamStay   = 100
	roamCycle  = roamAway + roamStay
	roamOffset = roamCycle / 2
)

// Rep is everything one repetition measured.
type Rep struct {
	setup      time.Duration
	ops        int // issued, warm-up included
	timedOps   int
	wall       time.Duration // first timed op due/issued → last timed apply
	latMs      []float64     // peer-apply latencies of timed ops, sorted
	lateMs     []float64     // how far behind schedule each timed op was issued, sorted
	catchupMs  []float64     // sampled Join call → JoinAck handled, sorted
	backlogs   []float64     // items carried by each sampled join's ack
	pairs      int64         // (op, peer) pairs attempted
	failed     int64         // pairs not applied in time, plus ops whose issue failed
	self       usage         // the loadgen's own cost over the rep, set-up included
	mallocs    uint64        // heap objects the loadgen allocated over the rep
	sut        sutUsage
	selfRSSKB  int64
	counts     *wireCounts
	dropped    uint64
	pendingMax int
	retrans    int
	failures   []string
	// ranLate marks a rep the loadgen itself invalidated: more than 1 % of
	// its ops were issued over lateLimit behind schedule, so its latencies
	// describe the stall, not the program.
	ranLate bool

	driveStart int64  // ns since the tracer's epoch when the first op was issued
	hub        string // the node every op passes through
	ordered    uint8  // the leg on which the hub forwards an op
}

// lateLimitMs is the lateness (p99, ms) beyond which a rep is invalid.
const lateLimitMs = 5

// usage is what a process cost: CPU time and context switches (voluntary and
// involuntary), as getrusage counts them.
type usage struct {
	user, sys time.Duration
	switches  int64
}

func (u usage) cpu() time.Duration { return u.user + u.sys }

func (u usage) minus(v usage) usage {
	return usage{u.user - v.user, u.sys - v.sys, u.switches - v.switches}
}

func usageOf(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{tv(ru.Utime), tv(ru.Stime), ru.Nvcsw + ru.Nivcsw}
}

// selfUsage reads the loadgen's own usage so far.
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usageOf(&ru)
}

// mallocs reads how many heap objects the loadgen has allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sessionRig is one fresh SUT with its participants joined and settled.
type sessionRig struct {
	w                *world
	sut              sut
	editors, roamers []*participant
	perEditor        int // ops each editor issues on a closed loop
}

// startSession brings up a SUT — the traced or plain in-process replica when
// inProcess, the real child otherwise — and joins the workload's participants
// p0, p1, …: PerDoc editors per document, then the roamers on the first
// document. Each joins before the next says hello, so the presence notices
// every earlier joiner must receive are countable. nOps sizes the rep.
func startSession(wl Workload, nOps int, bin string, tr *tracer, inProcess bool) (*sessionRig, error) {
	w := &world{
		epoch:     time.Now(),
		tr:        tr,
		inProcess: inProcess,
		engine:    wl.Engine,
		engCodec:  fabric.NewBinaryCodec(engine.NewWireCodec()),
		bySite:    make(map[string]*participant),
		settled:   make(chan struct{}),
		drained:   make(chan struct{}),
	}
	if tr != nil {
		w.epoch = tr.epoch
	}
	g := &sessionRig{w: w, perEditor: nOps}
	if wl.Rate == 0 {
		g.perEditor = nOps / (wl.Docs * wl.PerDoc)
		nOps = g.perEditor * wl.Docs * wl.PerDoc
	}
	var err error
	if inProcess {
		g.sut, err = startReplica(wl.Engine, &w.counts, tr)
	} else {
		g.sut, err = startChild(bin, wl.Engine)
	}
	if err != nil {
		return nil, err
	}
	w.hostAddr = g.sut.addr()
	// Roamers join the first document. The totals are fixed before anyone
	// joins: the first presence notice may arrive while later documents are
	// still being set up.
	perDoc := func(d int) int {
		if d == 0 {
			return wl.PerDoc + wl.Roamers
		}
		return wl.PerDoc
	}
	for d := 0; d < wl.Docs; d++ {
		n := perDoc(d)
		w.wantPresence += int64(n * (n - 1) / 2)
		w.wantPairs += int64(nOps / wl.Docs * (n - 1))
	}
	for d := 0; d < wl.Docs; d++ {
		n := perDoc(d)
		for k := 0; k < n; k++ {
			p, err := w.newParticipant(fmt.Sprintf("p%d", len(w.parts)), fmt.Sprintf("doc%d", d), g.perEditor, k < wl.PerDoc)
			if err == nil {
				err = p.join(false)
			}
			if err == nil {
				err = p.awaitJoin()
			}
			if err != nil {
				g.stop()
				return nil, err
			}
			if k < wl.PerDoc {
				g.editors = append(g.editors, p)
			} else {
				g.roamers = append(g.roamers, p)
			}
		}
	}
	select {
	case <-w.settled:
	case <-time.After(applyDeadline):
		g.stop()
		return nil, fmt.Errorf("%s: presence did not settle within %v (%d of %d notices)", wl.Name, applyDeadline, w.presence.Load(), w.wantPresence)
	}
	return g, nil
}

// stop closes every participant, then the SUT; safe to call twice.
func (g *sessionRig) stop() sutUsage {
	for _, p := range g.w.parts {
		p.close()
	}
	return g.sut.stop()
}

// drain waits until every (op, peer) pair has landed and the item counts have
// settled, or the deadline passes.
func (g *sessionRig) drain() {
	select {
	case <-g.w.drained:
	case <-time.After(applyDeadline):
	}
	g.w.awaitItems()
}

// runSessionRep runs one repetition of a sessiond workload against a fresh
// SUT: the real child when tr is nil, the traced in-process replica otherwise.
func runSessionRep(wl Workload, nOps int, seed int64, bin string, tr *tracer) (*Rep, error) {
	runtime.GC() // start every rep from a collected heap, whatever ran before
	cpu0, mallocs0 := selfUsage(), mallocs()
	start := time.Now()
	g, err := startSession(wl, nOps, bin, tr, tr != nil)
	if err != nil {
		return nil, err
	}
	defer g.stop()
	w := g.w
	r := &Rep{setup: time.Since(start), pairs: w.wantPairs, counts: &w.counts, hub: hostID}
	if wl.Engine == engine.OT {
		r.ordered = legOrdered
	}

	r.driveStart = w.now()
	var firstTimed int64
	var issueErrs int
	if wl.Rate == 0 {
		warm := int(float64(g.perEditor) * warmShare)
		r.ops = g.perEditor * len(g.editors)
		r.timedOps = (g.perEditor - warm) * len(g.editors)
		firstTimed, issueErrs = w.driveClosed(Script(seed, r.ops), g.editors, g.roamers, g.perEditor, warm)
	} else {
		warm := int(float64(nOps) * warmShare)
		r.ops, r.timedOps = nOps, nOps-warm
		var lateNs []int64
		firstTimed, issueErrs, lateNs = w.driveOpen(Script(seed, nOps), g.editors, g.roamers, wl.Rate, warm)
		r.lateMs = sortedMs(lateNs)
	}

	// Roamers still away come back (unsampled: their absence was cut short),
	// then every pair must land.
	for _, p := range g.roamers {
		if !p.cli.Joined() {
			if err := p.join(false); err != nil {
				w.fail("%v", err)
			}
		}
	}
	g.drain()
	r.wall = time.Duration(w.lastApply.Load() - firstTimed)
	r.failed = w.wantPairs - w.pairs.Load() + int64(issueErrs)

	w.verify(r)
	r.sut = g.stop()
	r.self, r.mallocs, r.selfRSSKB = selfUsage().minus(cpu0), mallocs()-mallocs0, peakRSSKB("self")
	r.failures = w.failures
	return r, nil
}

// pace runs an open loop on the calling goroutine: op i of n is due i/rate
// after the first. prepare (optional) runs when an op is due, before its issue
// instant is taken; issue gets the op's index and the instant its latency
// counts from — T0 on now's clock, or -1 for one of the first warm ops. pace
// returns the first timed op's due instant and every timed op's lateness.
func pace(n, rate, warm int, now func() int64, prepare func(i int), issue func(i int, t0 int64)) (firstTimed int64, lateNs []int64) {
	base := now()
	start := time.Now()
	lateNs = make([]int64, 0, n-warm)
	for i := 0; i < n; i++ {
		due := time.Duration(int64(i) * int64(time.Second) / int64(rate))
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if prepare != nil {
			prepare(i)
		}
		issued := time.Since(start)
		t0 := int64(-1)
		if i >= warm {
			if i == warm {
				firstTimed = base + int64(due)
			}
			t0 = base + int64(T0(issued, due))
			lateNs = append(lateNs, int64(issued-due))
		}
		issue(i, t0)
	}
	return firstTimed, lateNs
}

// storeMax raises a to v if v is later.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// driveOpen issues the script on a fixed schedule from one pacing goroutine,
// op i to editor i mod n, moving the roamers along as it goes. It returns the
// first timed op's due instant (ns since epoch), the number of failed issue
// calls and each timed op's lateness.
func (w *world) driveOpen(script []Draw, editors, roamers []*participant, rate, warm int) (firstTimed int64, issueErrs int, lateNs []int64) {
	firstTimed, lateNs = pace(len(script), rate, warm, w.now,
		func(i int) {
			for k, p := range roamers {
				w.roam(p, i-k*roamOffset, i >= warm)
			}
		},
		func(i int, t0 int64) {
			if err := editors[i%len(editors)].issue(script[i], t0); err != nil {
				w.fail("%v", err)
				issueErrs++
			}
		})
	return firstTimed, issueErrs, lateNs
}

// roam moves one roamer along its schedule; i is the op index counted from
// the roamer's own offset.
func (w *world) roam(p *participant, i int, timed bool) {
	if i <= 0 {
		return
	}
	var err error
	switch i % roamCycle {
	case roamStay:
		err = p.cli.Leave(0)
	case 0:
		err = p.join(timed)
	}
	if err != nil {
		w.fail("%s roaming at op %d: %v", p.name, i, err)
	}
}

// awaitAck waits, at most applyDeadline on the caller's reusable timer, for a
// closed-loop issuer's acknowledgement.
func awaitAck(ack <-chan struct{}, deadline *time.Timer) bool {
	if !deadline.Stop() {
		select {
		case <-deadline.C:
		default:
		}
	}
	deadline.Reset(applyDeadline)
	select {
	case <-ack:
		return true
	case <-deadline.C:
		return false
	}
}

// driveClosed runs one issuing goroutine per editor; each issues its next op
// when every timed peer has applied the previous one, so len(editors) ops are
// outstanding and the loadgen's CPU never idles. The first editor moves the
// roamers along the same op-count schedule the open loop keeps. It returns the
// earliest timed issue instant and the number of failed issue calls.
func (w *world) driveClosed(script []Draw, editors, roamers []*participant, perEditor, warm int) (firstTimed int64, issueErrs int) {
	var wg sync.WaitGroup
	firsts := make([]int64, len(editors))
	errs := make([]int, len(editors))
	for e, p := range editors {
		p.ack = make(chan struct{}, 1)
		p.ackNeed = int32(w.timedPeers())
		wg.Add(1)
		go func(e int, p *participant) {
			defer wg.Done()
			deadline := time.NewTimer(applyDeadline)
			defer deadline.Stop()
			for k := 0; k < perEditor; k++ {
				if e == 0 {
					for i := k * len(editors); i < (k+1)*len(editors); i++ {
						for r, roamer := range roamers {
							w.roam(roamer, i-r*roamOffset, k >= warm)
						}
					}
				}
				t0 := int64(-1)
				if k >= warm {
					t0 = w.now()
					if k == warm {
						firsts[e] = t0
					}
				}
				if err := p.issue(script[e*perEditor+k], t0); err != nil {
					w.fail("%v", err)
					errs[e]++
					return
				}
				if !awaitAck(p.ack, deadline) {
					w.fail("%s: op %d not applied at its peers within %v", p.name, k+1, applyDeadline)
					return
				}
			}
		}(e, p)
	}
	wg.Wait()
	firstTimed = firsts[0]
	for e := range editors {
		firstTimed = min(firstTimed, firsts[e])
		issueErrs += errs[e]
	}
	return firstTimed, issueErrs
}

// itemTotals returns, per document, how many items its log must hold: every
// participant's posts, plus one host commit per submission on OT.
func (w *world) itemTotals() map[string]int {
	totals := make(map[string]int)
	for _, p := range w.parts {
		p.mu.Lock()
		totals[p.doc] += p.posted
		p.mu.Unlock()
	}
	if w.engine == engine.OT {
		for doc := range totals {
			totals[doc] *= 2
		}
	}
	return totals
}

// itemsSettled reports whether every participant has received every item but
// its own: a client is never sent its own posts, the only gaps allowed.
func (w *world) itemsSettled(totals map[string]int) bool {
	for _, p := range w.parts {
		p.mu.Lock()
		ok := p.received+p.posted == totals[p.doc]
		p.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// awaitItems waits for quiescence: the last pair landing does not mean the
// last acknowledgement has reached its author.
func (w *world) awaitItems() {
	deadline := time.Now().Add(applyDeadline)
	for !w.itemsSettled(w.itemTotals()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// verify runs the correctness checks of one rep and collects what the
// participants measured.
func (w *world) verify(r *Rep) {
	if got := w.pairs.Load(); got != w.wantPairs {
		w.fail("%d of %d (op, peer) pairs applied", got, w.wantPairs)
	}
	totals := w.itemTotals()
	texts := make(map[string]string)
	var latNs, catchupNs []int64
	for _, p := range w.parts {
		p.mu.Lock()
		if p.received+p.posted != totals[p.doc] {
			w.fail("%s: received %d + posted %d items, document %s holds %d", p.name, p.received, p.posted, p.doc, totals[p.doc])
		}
		text := p.eng.Text()
		if want, seen := texts[p.doc]; !seen {
			texts[p.doc] = text
		} else if text != want {
			w.fail("%s: replica of %s diverged (%d runes against %d)", p.name, p.doc, len(text), len(want))
		}
		if n := p.eng.Pending(); n != 0 {
			w.fail("%s: %d ops still pending at quiescence", p.name, n)
		}
		latNs = append(latNs, p.latNs...)
		catchupNs = append(catchupNs, p.catchupNs...)
		r.backlogs = append(r.backlogs, p.backlogs...)
		r.pendingMax = max(r.pendingMax, p.pendingMax)
		p.mu.Unlock()
		r.dropped += fabric.DroppedOf(p.ep)
	}
	r.latMs, r.catchupMs = sortedMs(latNs), sortedMs(catchupNs)
	r.failed += overdue(r.latMs)
	if r.dropped != 0 {
		w.fail("fabric dropped %d frames at loadgen endpoints", r.dropped)
	}
	if n := w.counts.sendErrors.Load(); n != 0 {
		w.fail("%d transport sends failed", n)
	}
	if len(r.latMs) != r.timedOps*w.timedPeers() {
		w.fail("%d latency samples for %d timed ops", len(r.latMs), r.timedOps)
	}
	r.ranLate = Percentile(r.lateMs, 99) > lateLimitMs
}

// overdue counts the pairs that were applied, but later than applyDeadline.
func overdue(latMs []float64) int64 {
	limit := float64(applyDeadline) / 1e6
	return int64(len(latMs) - sort.SearchFloat64s(latMs, math.Nextafter(limit, math.Inf(1))))
}

// timedPeers is how many latency samples one op yields: the other editors of
// its document (roamers converge but are not timed).
func (w *world) timedPeers() int {
	n := 0
	for _, p := range w.parts {
		if p.doc == w.parts[0].doc && p.timed {
			n++
		}
	}
	return n - 1
}
