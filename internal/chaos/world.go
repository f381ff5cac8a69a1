package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
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

// nodeChain is one simulated host's endpoint: the substrate adapter plus the
// two faults a scenario may set and the node's half of the drop ledger. It
// is the fabric.Endpoint the rest of the world sees. Every field is touched
// only on the simulator's goroutine, so none needs a lock.
type nodeChain struct {
	w    *World
	id   string
	base *fabric.SimEndpoint

	// dropProb loses each send with this probability before it reaches the
	// substrate; the loss is silent to the sender, as on a real wire.
	dropProb float64
	rng      *rand.Rand // drop draws, built on the first one
	// hold delays every delivery by this much virtual time before the
	// handler runs: a slow or wedged application, not the network.
	hold time.Duration

	sent       uint64 // sends that returned nil, fault drops included
	sendErrs   uint64
	faultDrops uint64
	stalled    uint64 // deliveries held
	recvd      uint64 // deliveries handed to the handler
	digest     uint64 // FNV-1a over (virtual time, from, payload type, size) of every delivery
}

func (nc *nodeChain) ID() string              { return nc.id }
func (nc *nodeChain) Close() error            { return nc.base.Close() }
func (nc *nodeChain) Unwrap() fabric.Endpoint { return nc.base }

// Send counts every attempt: a fault drop counts as sent and returns nil.
func (nc *nodeChain) Send(to string, payload any, size int) error {
	if nc.dropProb > 0 && nc.drawDrop() {
		nc.sent++
		nc.faultDrops++
		return nil
	}
	if err := nc.base.Send(to, payload, size); err != nil {
		nc.sendErrs++
		return err
	}
	nc.sent++
	return nil
}

// drawDrop reports whether this send is lost. The randomness derives from
// the world seed and the node name, so it is the same on every run.
func (nc *nodeChain) drawDrop() bool {
	if nc.rng == nil {
		h := fnv.New64a()
		h.Write([]byte(nc.id))
		nc.rng = rand.New(rand.NewSource(nc.w.Seed ^ int64(h.Sum64())))
	}
	return nc.rng.Float64() < nc.dropProb
}

// SetHandler installs h behind the hold; the receive count and digest are
// taken when a delivery is released to h, not when it arrives.
func (nc *nodeChain) SetHandler(h fabric.Handler) {
	if h == nil {
		nc.base.SetHandler(nil)
		return
	}
	release := func(from string, payload any, size int) {
		nc.recvd++
		dh := fnv.New64a()
		fmt.Fprintf(dh, "%d|%s|%s|%T|%d", nc.digest, nc.w.Sim.Now(), from, payload, size)
		nc.digest = dh.Sum64()
		h(from, payload, size)
	}
	nc.base.SetHandler(func(from string, payload any, size int) {
		if nc.hold <= 0 {
			release(from, payload, size)
			return
		}
		nc.stalled++
		nc.w.After(nc.hold, func() { release(from, payload, size) })
	})
}

// World is the environment one scenario runs in: the shared simulated
// deployment (seeded simulator, endpoints, link shapes, protocol stacks —
// see simworld) with a nodeChain around every node, the deterministic
// trace, and the accumulated invariant violations.
type World struct {
	*simworld.World

	trace      *trace
	order      []*nodeChain // node creation order: the deterministic iteration order
	violations []Violation
}

func newWorld(seed int64) *World {
	w := &World{
		World: simworld.New(seed, netsim.LANLink),
		trace: &trace{},
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

// chain is the world's per-node wrap hook: the node's endpoint is its
// nodeChain.
func (w *World) chain(id string, base *fabric.SimEndpoint) fabric.Endpoint {
	nc := &nodeChain{w: w, id: id, base: base}
	w.order = append(w.order, nc)
	return nc
}

// node returns the named node's chain, creating the node if needed.
func (w *World) node(id string) *nodeChain {
	return w.Endpoint(id).(*nodeChain)
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

// ledger is the application side of the drop accounting, summed over every
// node.
type ledger struct {
	sent, sendErrs, faultDrops, recvd, inboxDrops uint64
}

func (w *World) ledger() (l ledger) {
	for _, nc := range w.order {
		l.sent += nc.sent
		l.sendErrs += nc.sendErrs
		l.faultDrops += nc.faultDrops
		l.recvd += nc.recvd
		l.inboxDrops += nc.base.Dropped()
	}
	return l
}

// checkAccounting reconciles the nodes' ledger with the netsim counters:
// every application send must end up delivered to a handler or counted in
// exactly one drop bucket (injected fault, link down/loss/crash, a fabric
// adapter's drop, no node handler). Anything else is silent loss — a
// violation.
func (w *World) checkAccounting() {
	if p := w.Sim.Pending(); p != 0 {
		w.Violatef("drop-accounting", "simulator queue not drained: %d events pending", p)
		return
	}
	l := w.ledger()
	appSends := l.sent + l.sendErrs
	simSent, simDropped := w.Sim.Stats()
	delivered := w.Sim.Delivered()
	noHandler := w.Sim.DroppedNoHandler()

	// (1) Every app send either died in a fault injector or reached netsim.
	if appSends != l.faultDrops+uint64(simSent) {
		w.Violatef("drop-accounting",
			"app sends %d != fault drops %d + netsim sends %d", appSends, l.faultDrops, simSent)
	}
	// (2) Netsim conserves messages across its drop buckets.
	if simSent != delivered+simDropped+noHandler {
		w.Violatef("drop-accounting",
			"netsim sent %d != delivered %d + dropped %d + no-handler %d",
			simSent, delivered, simDropped, noHandler)
	}
	// (3) Every netsim delivery reached an application handler or was
	// was counted by its fabric adapter as arriving before the handler.
	if uint64(delivered) != l.recvd+l.inboxDrops {
		w.Violatef("drop-accounting",
			"netsim delivered %d != handler deliveries %d + inbox drops %d",
			delivered, l.recvd, l.inboxDrops)
	}
}

// finish appends the deterministic run summary — counters and per-node
// delivery digests — to the trace.
func (w *World) finish() {
	at := w.Sim.Now()
	l := w.ledger()
	sent, dropped := w.Sim.Stats()
	w.trace.eventf(at, "summary: app sent=%d senderrs=%d recv=%d inboxdrops=%d | netsim sent=%d delivered=%d dropped=%d nohandler=%d",
		l.sent, l.sendErrs, l.recvd, l.inboxDrops,
		sent, w.Sim.Delivered(), dropped, w.Sim.DroppedNoHandler())
	for _, nc := range w.order {
		w.trace.eventf(at, "node %s: recv=%d digest=%016x faultdrops=%d stalled=%d inboxdrops=%d",
			nc.id, nc.recvd, nc.digest, nc.faultDrops, nc.stalled, nc.base.Dropped())
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
	return defaultScaleDiv
}

const defaultScaleDiv = 10

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
