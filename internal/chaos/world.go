package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/simworld"
)

// trace is the deterministic event log: every line is stamped with virtual
// time, so two runs of the same scenario and seed must produce identical
// bytes. Nothing wall-clock or map-ordered may be written here.
type trace struct {
	buf bytes.Buffer
}

func (t *trace) eventf(at time.Duration, format string, args ...any) {
	fmt.Fprintf(&t.buf, "[%12s] %s\n", at, fmt.Sprintf(format, args...))
}

func (t *trace) bytes() []byte { return t.buf.Bytes() }

// nodeChain is one simulated host's fabric stack: the substrate adapter
// wrapped (inside out) by a handler-stall injector, a send-fault injector,
// a delivery digest tap, and the world's shared metrics collector.
type nodeChain struct {
	id     string
	base   *fabric.SimEndpoint
	faults *fabric.Faults
	stall  *fabric.Stall
	digest uint64 // FNV-1a over (virtual time, from, payload type, size) of every delivery
	recvd  uint64
}

// World is the environment one scenario runs in: the shared simulated
// deployment (seeded simulator, endpoints, link shapes, protocol stacks —
// see simworld) with a fault chain wrapped around every node, a shared
// metrics collector whose drop probe spans every endpoint, the
// deterministic trace, and the accumulated invariant violations.
type World struct {
	*simworld.World
	Metrics *fabric.Metrics

	trace      *trace
	nodes      map[string]*nodeChain
	order      []*nodeChain // node creation order: the deterministic iteration order
	violations []Violation
}

func newWorld(seed int64) *World {
	w := &World{
		World:   simworld.New(seed, netsim.LANLink),
		Metrics: fabric.NewMetrics(),
		trace:   &trace{},
		nodes:   make(map[string]*nodeChain),
	}
	w.Wrap = w.chain
	return w
}

// Logf records a scenario event in the trace at the current virtual time.
func (w *World) Logf(format string, args ...any) {
	w.trace.eventf(w.Sim.Now(), format, args...)
}

// Violatef records a failed invariant check, in the trace and the result.
func (w *World) Violatef(invariant, format string, args ...any) {
	v := Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	w.violations = append(w.violations, v)
	w.trace.eventf(w.Sim.Now(), "VIOLATION [%s] %s", v.Invariant, v.Detail)
}

// chain is the world's per-node wrap hook: SimEndpoint wrapped by Stall,
// Faults, the shared Metrics and the digest tap. The fault injector's
// randomness derives deterministically from the world seed and the node
// name.
func (w *World) chain(id string, base *fabric.SimEndpoint) fabric.Endpoint {
	nc := &nodeChain{id: id, base: base}
	h := fnv.New64a()
	h.Write([]byte(id))
	nc.faults = fabric.NewFaults(w.Seed ^ int64(h.Sum64())).SetTimer(w.After)
	nc.stall = fabric.NewStall().SetTimer(w.After)
	digestTap := fabric.Tap(nil, func(peer string, payload any, size int) {
		nc.recvd++
		dh := fnv.New64a()
		fmt.Fprintf(dh, "%d|%s|%s|%T|%d", nc.digest, w.Sim.Now(), peer, payload, size)
		nc.digest = dh.Sum64()
	})
	w.nodes[id] = nc
	w.order = append(w.order, nc)
	return fabric.Wrap(base,
		digestTap, w.Metrics.Middleware(), nc.faults.Middleware(), nc.stall.Middleware())
}

// Faults returns the named node's send-path fault injector (creating the
// node if needed).
func (w *World) Faults(id string) *fabric.Faults {
	w.Endpoint(id)
	return w.nodes[id].faults
}

// Stall returns the named node's handler-stall injector (creating the node
// if needed).
func (w *World) Stall(id string) *fabric.Stall {
	w.Endpoint(id)
	return w.nodes[id].stall
}

// Members is the shared builder's Members with a setup failure recorded as
// a violation (and nil returned) instead of handed back.
func (w *World) Members(ids []string, ordering group.Ordering, batch group.BatchConfig, deliver func(id string) func(group.Delivery)) map[string]*group.Member {
	members, err := w.World.Members(ids, ordering, batch, deliver)
	if err != nil {
		w.Violatef("setup", "%v", err)
	}
	return members
}

// Run drains the simulator and then reconciles the message accounting —
// the zero-unaccounted-drops invariant. Every scenario ends with it.
func (w *World) Run() {
	w.Sim.Run()
	w.checkAccounting()
}

// checkAccounting reconciles the fabric metrics with the netsim counters:
// every application send must end up delivered to a handler or counted in
// exactly one drop bucket (injected fault, link down/loss/crash, inbox
// overflow, no handler). Anything else is silent loss — a violation.
func (w *World) checkAccounting() {
	if p := w.Sim.Pending(); p != 0 {
		w.Violatef("drop-accounting", "simulator queue not drained: %d events pending", p)
		return
	}
	var faultDrops uint64
	for _, nc := range w.order {
		d, _ := nc.faults.Injected()
		faultDrops += d
	}
	snap := w.Metrics.Snapshot()
	appSends := snap.Sent + snap.SendErrs
	simSent, simDropped := w.Sim.Stats()
	delivered := w.Sim.Delivered()
	noHandler := w.Sim.DroppedNoHandler()

	// (1) Every app send either died in a fault injector or reached netsim.
	if appSends != faultDrops+uint64(simSent) {
		w.Violatef("drop-accounting",
			"app sends %d != fault drops %d + netsim sends %d", appSends, faultDrops, simSent)
	}
	// (2) Netsim conserves messages across its drop buckets.
	if simSent != delivered+simDropped+noHandler {
		w.Violatef("drop-accounting",
			"netsim sent %d != delivered %d + dropped %d + no-handler %d",
			simSent, delivered, simDropped, noHandler)
	}
	// (3) Every netsim delivery reached an application handler or was
	// counted by an inbox (overflow/decode) drop. The Dropped probe here
	// spans every wrapped endpoint.
	if uint64(delivered) != snap.Recv+snap.Dropped {
		w.Violatef("drop-accounting",
			"netsim delivered %d != handler deliveries %d + inbox drops %d",
			delivered, snap.Recv, snap.Dropped)
	}
}

// finish appends the deterministic run summary — counters and per-node
// delivery digests — to the trace.
func (w *World) finish() {
	at := w.Sim.Now()
	snap := w.Metrics.Snapshot()
	sent, dropped := w.Sim.Stats()
	w.trace.eventf(at, "summary: app sent=%d senderrs=%d recv=%d inboxdrops=%d | netsim sent=%d delivered=%d dropped=%d nohandler=%d",
		snap.Sent, snap.SendErrs, snap.Recv, snap.Dropped,
		sent, w.Sim.Delivered(), dropped, w.Sim.DroppedNoHandler())
	for _, nc := range w.order {
		faultDrops, faultDelays := nc.faults.Injected()
		w.trace.eventf(at, "node %s: recv=%d digest=%016x faultdrops=%d faultdelays=%d stalled=%d inboxdrops=%d",
			nc.id, nc.recvd, nc.digest, faultDrops, faultDelays, nc.stall.Stalled(), nc.base.Dropped())
	}
	if len(w.violations) == 0 {
		w.trace.eventf(at, "all invariants held")
	}
}

// scaleDiv is the divisor applied to the scale scenarios' node counts. The
// CHAOS_SCALE environment variable sets it ("1" = full scale); the default
// of 10 keeps the CI matrix inside its time budget (`make chaos-scale`
// runs the full-size worlds). The value is constant for a whole process,
// so per-seed trace determinism is unaffected.
func scaleDiv() int {
	if v := os.Getenv("CHAOS_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 1 {
			return n
		}
	}
	return 10
}

// scaled shrinks a full-scale count by the scale divisor, with a floor
// that keeps the reduced scenario meaningful.
func scaled(full, min int) int {
	n := full / scaleDiv()
	if n < min {
		n = min
	}
	return n
}

// sized logs the effective scale so a trace records which world it ran in.
func (w *World) sized(what string, n, full int) int {
	if n != full {
		w.Logf("scale: %s=%d (full %d, CHAOS_SCALE divisor %d)", what, n, full, scaleDiv())
	} else {
		w.Logf("scale: %s=%d (full)", what, n)
	}
	return n
}
