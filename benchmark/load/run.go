package load

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/engine"
)

// Workloads are the five traffic shapes, documents × participants in the name.
var Workloads = []Workload{
	{
		Name:   "relay_1x4",
		Why:    "1 doc, 4 CRDT editors, each keeping one op outstanding: sessiond is a pure relay (1 post in, 3 pushes out), so transport, fabric and session fan-out are all it does",
		Engine: engine.CRDT, Docs: 1, PerDoc: 4, Rate: 1000, ClosedRate: 14000,
	},
	{
		Name:   "ot_1x4",
		Why:    "same shape with -engine ot: the daemon integrates under engMu and commits re-enter the log and fan out to all 4, so an engine change moves this and leaves relay_1x4 flat",
		Engine: engine.OT, Docs: 1, PerDoc: 4, Rate: 1000, ClosedRate: 10000,
	},
	{
		Name:   "relay_8x2_sat",
		Why:    "8 docs x 2 CRDT editors, 16 ops outstanding: fan-out at its minimum (1 push per post), so per-frame cost, MultiHost demux and goroutine hand-offs dominate",
		Engine: engine.CRDT, Docs: 8, PerDoc: 2, ClosedRate: 30000,
	},
	{
		Name:   "churn_catchup",
		Why:    "2 CRDT writers plus 2 roamers that leave for 400 ops and rejoin for 100: the disconnection case, the read side of the session log and 400-item join-ack frames",
		Engine: engine.CRDT, Docs: 1, PerDoc: 2, Roamers: 2, Rate: 1000, ClosedRate: 16000,
	},
	{
		Name: "group_seq_1x4",
		Why:  "4 group.Members, TotalSequencer, JSON codec over loopback TCP, 4 multicasts outstanding: the ordering layer on the real substrate, bypassing session and engine, no child process",
		Docs: 1, PerDoc: 4, Rate: 2000, ClosedRate: 6000,
	},
}

// EndToEndUnits names the gated metrics, with their units: what an untraced
// run reports. BENCHMARK.json declares the same list with directions and
// bounds (a test holds the two together). Apart from setup_s, which the
// driver's contract requires, they are counts and sizes: on the reference box
// no figure measured in seconds repeats within any bound a gate could hold
// (README, "Noise"), so throughput, latency and CPU per op are reported
// ungated, as e2e.* per-layer metrics.
var EndToEndUnits = map[string]string{
	"setup_s":           "s",
	"wire_bytes_per_op": "B",
	"peak_rss_mb":       "MB",
	"allocs_per_op":     "count",
}

// PerLayerUnits names what a traced run reports: per-layer busy and wait
// times, counts, the harness's own validity guards and the ungated tails.
var PerLayerUnits = map[string]string{
	"transport.send_us":              "us",
	"transport.hop_wait_us":          "us",
	"transport.frames_per_op":        "count",
	"transport.bytes_per_frame":      "B",
	"transport.dials":                "count",
	"transport.send_errors":          "count",
	"fabric.encode_us":               "us",
	"fabric.decode_us":               "us",
	"fabric.inbox_self_us":           "us",
	"fabric.codec_allocs_post":       "count",
	"fabric.codec_allocs_items1":     "count",
	"fabric.codec_allocs_items400":   "count",
	"fabric.dropped":                 "count",
	"session.host_receive_self_us":   "us",
	"session.client_receive_self_us": "us",
	"session.pushes_per_op":          "count",
	"session.post_allocs":            "count",
	"session.join_serve_us":          "us",
	"session.backlog_items_per_join": "count",
	"engine.local_edit_us":           "us",
	"engine.apply_us":                "us",
	"engine.item_encode_us":          "us",
	"engine.item_decode_us":          "us",
	"engine.host_integrate_us":       "us",
	"engine.pending_max":             "count",
	"group.multicast_us":             "us",
	"group.receive_self_us":          "us",
	"group.frames_per_op":            "count",
	"group.retransmissions":          "count",
	"sessiond.cpu_us_per_op":         "us",
	"sessiond.user_share":            "ratio",
	"sessiond.rss_mb":                "MB",
	"loadgen.late_p50_ms":            "ms",
	"loadgen.late_p99_ms":            "ms",
	"loadgen.cpu_us_per_op":          "us",
	"loadgen.issue_self_us":          "us",
	"loadgen.build_s":                "s",
	"loadgen.reps_discarded":         "count",
	"e2e.sat_ops_per_s":              "op/s",
	"e2e.sat_peer_apply_p50_ms":      "ms",
	"e2e.sat_cpu_us_per_op":          "us",
	"e2e.ctx_switches_per_op":        "count",
	"e2e.peer_apply_p50_ms":          "ms",
	"e2e.cpu_us_per_op":              "us",
	"e2e.peer_apply_p90_ms":          "ms",
	"e2e.peer_apply_p99_ms":          "ms",
	"e2e.peer_apply_max_ms":          "ms",
	"e2e.catchup_p50_ms":             "ms",
	"e2e.catchup_p90_ms":             "ms",
	"e2e.failed_share":               "ratio",
	"trace.overhead_share":           "ratio",
	"trace.unexplained_share":        "ratio",
}

// WorkloadNamed finds a workload by name.
func WorkloadNamed(name string) (Workload, bool) {
	for _, wl := range Workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return Workload{}, false
}

// Metric is one reported figure. Spread is (max − min) ÷ median over the
// repetitions; Samples says how many observations stand behind a percentile.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
}

// Result is one workload's outcome in one mode (untraced or traced).
type Result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Failures  []string          `json:"failures,omitempty"`
	// Discarded counts reps thrown away and repeated because the loadgen ran
	// late (see maxDiscards).
	Discarded int `json:"discarded,omitempty"`
}

// Options are the knobs of one run.
type Options struct {
	Seed     int64
	Seconds  int    // measuring time the op counts are sized for
	Quick    bool   // 1 rep, one tenth the ops: development only
	Sessiond string // path of the built cmd/sessiond binary
	BuildS   float64
	OutDir   string // where trace files go
}

// A closed-loop repetition is sized to last about repSeconds on the reference
// box, and an invocation runs seconds ÷ repSeconds of them, each against a
// fresh SUT with fresh documents. Short repetitions keep a document's history
// short — CRDT edit cost grows with tombstones, and past a few thousand ops per
// document the engine, not the session path, is what a rep measures — and the
// median over thirty of them rides out the box's shorter slow spells. Every
// repetition's set-up is a sample of setup_s.
const repSeconds = 0.5

// openReps sizes the open-loop rep of a traced run: a third of the measuring
// time, as when three of them made a run.
const openReps = 3

// opsPerRep sizes one repetition; the count depends on the flags alone.
func (o Options) opsPerRep(wl Workload) int {
	n := wl.Rate * o.Seconds / openReps
	if wl.Rate == 0 {
		n = int(float64(wl.ClosedRate) * repSeconds)
	}
	if o.Quick {
		n /= 10
	}
	if wl.Roamers > 0 {
		n = (n + roamCycle - 1) / roamCycle * roamCycle
	}
	return max(n, 200)
}

// reps is how many closed-loop repetitions one invocation runs.
func (o Options) reps() int {
	if o.Quick {
		return 1
	}
	return int(float64(o.Seconds) / repSeconds)
}

func (o Options) runRep(wl Workload, nOps int, tr *tracer) (*Rep, error) {
	defer oneCPU()() // see affinity.go
	if wl.Engine == "" {
		return runGroupRep(wl, nOps, o.Seed, tr)
	}
	return runSessionRep(wl, nOps, o.Seed, o.Sessiond, tr)
}

// maxDiscards is how many late-running reps one invocation may throw away
// and repeat before the lateness counts as a failed check. A stall of the box
// (this one loses tens of milliseconds to its hypervisor now and then) should
// cost a repeat, not the run; a loadgen that cannot keep the schedule at all
// still fails.
const maxDiscards = 5

// steadyRep runs untraced reps until one keeps the schedule, or the discard
// budget is spent.
func (o Options) steadyRep(wl Workload, nOps int, discarded *int) (*Rep, error) {
	for {
		r, err := o.runRep(wl, nOps, nil)
		if err != nil || !r.ranLate {
			return r, err
		}
		if *discarded == maxDiscards {
			r.failures = append(r.failures, fmt.Sprintf("loadgen ran late: p99 %.2f ms behind schedule (limit %d ms) after %d discarded reps",
				Percentile(r.lateMs, 99), lateLimitMs, *discarded))
			return r, nil
		}
		*discarded++
	}
}

// closedReps runs n closed-loop repetitions of a workload, whatever its Rate,
// against a fresh SUT each, all from the same seed: each editor keeps one op
// outstanding, so the CPU the loadgen and the child share never idles.
func (o Options) closedReps(wl Workload, n int) ([]*Rep, error) {
	wl.Rate = 0
	nOps := o.opsPerRep(wl)
	rs := make([]*Rep, 0, n)
	for i := 0; i < n; i++ {
		r, err := o.runRep(wl, nOps, nil)
		if err != nil {
			return nil, fmt.Errorf("%s rep %d: %w", wl.Name, i+1, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// overReps sets a metric to the median over the repetitions of what f reads
// from each, with the spread beside it.
func (res *Result) overReps(rs []*Rep, name, unit string, f func(*Rep) float64) {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = f(r)
	}
	res.Metrics[name] = Metric{Value: Median(vals), Unit: unit, Spread: Spread(vals), Samples: len(vals)}
}

// RunUntraced measures the end-to-end metrics over closed-loop repetitions
// (see closedReps and repSeconds), the median reported with the spread beside
// it. Every repetition's set-up is a sample of setup_s.
func (o Options) RunUntraced(wl Workload) (*Result, error) {
	rs, err := o.closedReps(wl, o.reps())
	if err != nil {
		return nil, err
	}
	res := newResult(wl, rs)
	e2e := func(name string, f func(*Rep) float64) { res.overReps(rs, name, EndToEndUnits[name], f) }
	e2e("setup_s", func(r *Rep) float64 { return r.setup.Seconds() })
	e2e("wire_bytes_per_op", func(r *Rep) float64 { return float64(r.counts.bytes.Load()) / float64(r.ops) })
	e2e("peak_rss_mb", func(r *Rep) float64 {
		if wl.Engine == "" {
			return float64(r.selfRSSKB) / 1024
		}
		return float64(r.sut.maxRSSKB) / 1024
	})
	e2e("allocs_per_op", func(r *Rep) float64 { return float64(r.mallocs) / float64(r.ops) })
	return res, nil
}

// cpuPerOp is the user+system CPU of the loadgen and the child per op issued,
// set-up included, in µs.
func cpuPerOp(r *Rep) float64 {
	return float64((r.self.cpu() + r.sut.cpu()).Microseconds()) / float64(r.ops)
}

func newResult(wl Workload, rs []*Rep) *Result {
	res := &Result{Workload: wl.Name, Metrics: make(map[string]Metric)}
	for _, r := range rs {
		res.Attempted += r.pairs
		res.Failed += r.failed
		res.Failures = append(res.Failures, r.failures...)
	}
	res.Correct = res.Failed == 0 && len(res.Failures) == 0
	return res
}

// satReps is how many closed-loop repetitions a traced run makes for the
// ungated saturation figures (e2e.sat_*).
const satReps = 10

// RunTraced produces the per-layer metrics: one untraced rep at the
// workload's own Rate against the real child (the open loop's latency and CPU
// per op, tails, catch-up, the child's own cost, how late the loop ran), a few
// closed-loop reps for the saturation figures, the replica-parity check, one
// traced rep at a third of the op count against the in-process replica, and
// the exact allocation counts.
func (o Options) RunTraced(wl Workload) (*Result, error) {
	nOps := o.opsPerRep(wl)
	discarded := 0
	plain, err := o.steadyRep(wl, nOps, &discarded)
	if err != nil {
		return nil, fmt.Errorf("%s untraced rep: %w", wl.Name, err)
	}
	sat, err := o.closedReps(wl, satReps)
	if err != nil {
		return nil, err
	}
	var parityFailure string
	if wl.Engine != "" {
		undo := oneCPU()
		if err := CheckParity(o.Sessiond, o.Seed); err != nil {
			parityFailure = "replica parity: " + err.Error()
		}
		undo()
	}
	tracedOps := nOps / 3
	if wl.Roamers > 0 {
		tracedOps = max(tracedOps/roamCycle, 2) * roamCycle
	}
	tr := newTracer()
	traced, err := o.runRep(wl, tracedOps, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced rep: %w", wl.Name, err)
	}
	spans := tr.finish()
	if o.OutDir != "" {
		if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(o.OutDir, "trace-"+wl.Name+".json"), wl.Name, spans); err != nil {
			return nil, err
		}
	}
	lt := analyze(spans, traced.hub, traced.ordered, traced.driveStart)

	res := newResult(wl, append([]*Rep{plain, traced}, sat...))
	res.Discarded = discarded
	if parityFailure != "" {
		res.Failures = append(res.Failures, parityFailure)
		res.Correct = false
	}
	// Every per-layer metric is reported by every workload; the ones that do
	// not apply (engine figures without an engine, sessiond.* without a child)
	// stay 0.
	for name, unit := range PerLayerUnits {
		res.Metrics[name] = Metric{Unit: unit}
	}
	set := func(name string, v float64) { res.Metrics[name] = Metric{Value: v, Unit: PerLayerUnits[name]} }
	setN := func(name string, v float64, samples int) {
		res.Metrics[name] = Metric{Value: v, Unit: PerLayerUnits[name], Samples: samples}
	}
	session := wl.Engine != ""
	perOp := func(v float64, r *Rep) float64 { return v / float64(r.ops) }
	frames := float64(traced.counts.frames.Load())

	set("transport.send_us", lt.all[spanTransportSend])
	set("transport.hop_wait_us", lt.hopWaitUs)
	set("transport.frames_per_op", perOp(frames, traced))
	set("transport.bytes_per_frame", float64(traced.counts.bytes.Load())/frames)
	set("transport.dials", float64(traced.counts.dials.Load()))
	set("transport.send_errors", float64(traced.counts.sendErrors.Load()+plain.counts.sendErrors.Load()))
	set("fabric.encode_us", lt.all[spanEncode])
	set("fabric.decode_us", lt.all[spanDecode])
	set("fabric.inbox_self_us", lt.all[spanTransportRecv])
	set("fabric.dropped", float64(traced.dropped+plain.dropped))
	ca := codecAllocs()
	set("fabric.codec_allocs_post", ca.post)
	set("fabric.codec_allocs_items1", ca.items1)
	set("fabric.codec_allocs_items400", ca.items400)
	set("session.post_allocs", postAllocs())
	if session {
		set("session.host_receive_self_us", lt.hub[spanReceive])
		set("session.client_receive_self_us", lt.client[spanReceive])
		set("session.pushes_per_op", perOp(float64(traced.sut.pushes), traced))
	} else {
		set("group.receive_self_us", lt.all[spanReceive])
		set("group.frames_per_op", perOp(frames, traced))
	}
	set("session.join_serve_us", lt.joinServeUs)
	set("session.backlog_items_per_join", Mean(plain.backlogs))
	set("engine.local_edit_us", lt.all[spanLocalEdit])
	set("engine.apply_us", lt.all[spanApply])
	set("engine.item_encode_us", lt.client[spanItemEncode])
	set("engine.item_decode_us", lt.all[spanItemDecode])
	set("engine.host_integrate_us", lt.all[spanIntegrate])
	set("engine.pending_max", float64(max(plain.pendingMax, traced.pendingMax)))
	set("group.multicast_us", lt.all[spanMulticast])
	set("group.retransmissions", float64(plain.retrans+traced.retrans))
	childCPU := plain.sut.cpu()
	set("sessiond.cpu_us_per_op", perOp(float64(childCPU.Microseconds()), plain))
	userShare := 0.0
	if childCPU > 0 {
		userShare = plain.sut.user.Seconds() / childCPU.Seconds()
	}
	set("sessiond.user_share", userShare)
	set("sessiond.rss_mb", float64(plain.sut.maxRSSKB)/1024)
	late := plain.lateMs
	set("loadgen.late_p50_ms", Percentile(late, 50))
	set("loadgen.late_p99_ms", Percentile(late, 99))
	set("loadgen.cpu_us_per_op", perOp(float64(plain.self.cpu().Microseconds()), plain))
	set("loadgen.issue_self_us", lt.all[spanIssue])
	set("loadgen.build_s", o.BuildS)
	set("loadgen.reps_discarded", float64(discarded))
	perLayer := func(name string, f func(*Rep) float64) { res.overReps(sat, name, PerLayerUnits[name], f) }
	perLayer("e2e.sat_ops_per_s", func(r *Rep) float64 { return float64(r.timedOps) / r.wall.Seconds() })
	perLayer("e2e.sat_peer_apply_p50_ms", func(r *Rep) float64 { return Percentile(r.latMs, 50) })
	perLayer("e2e.sat_cpu_us_per_op", cpuPerOp)
	perLayer("e2e.ctx_switches_per_op", func(r *Rep) float64 {
		return float64(r.self.switches+r.sut.switches) / float64(r.ops)
	})
	lat := plain.latMs
	setN("e2e.peer_apply_p50_ms", Percentile(lat, 50), len(lat))
	set("e2e.cpu_us_per_op", cpuPerOp(plain))
	setN("e2e.peer_apply_p90_ms", Percentile(lat, 90), len(lat))
	setN("e2e.peer_apply_p99_ms", Percentile(lat, 99), len(lat))
	setN("e2e.peer_apply_max_ms", Percentile(lat, 100), len(lat))
	catchup := plain.catchupMs
	setN("e2e.catchup_p50_ms", Percentile(catchup, 50), len(catchup))
	setN("e2e.catchup_p90_ms", Percentile(catchup, 90), len(catchup))
	set("e2e.failed_share", float64(res.Failed)/float64(res.Attempted))
	p50 := Percentile(lat, 50)
	set("trace.overhead_share", (Percentile(traced.latMs, 50)-p50)/p50)
	set("trace.unexplained_share", lt.unexplained)
	return res, nil
}

// MetricNames returns a result's metric names, sorted.
func (r *Result) MetricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
