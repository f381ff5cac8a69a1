// Package netsim is a deterministic discrete-event network simulator.
//
// The paper's experiments concern distributed CSCW sessions over LANs, WANs
// and mobile radio links — hardware we substitute with a simulated network
// whose links have configurable latency, jitter, loss and bandwidth, and
// whose mobile links move between connection levels (disconnected, partial,
// full) on a schedule. Virtual time makes experiments reproducible and lets
// a benchmark simulate minutes of session activity in milliseconds.
//
// The simulator is single-threaded: all handlers run on the goroutine that
// calls Run/RunUntil/Step, in timestamp order (ties broken by insertion
// order), so no locking is needed inside handlers.
//
// Topology scales past toy worlds: nodes carry dense integer handles
// (NodeID) indexing slice state, links resolve through a three-tier
// hierarchy (explicit pair override → region-pair link class → simulator
// default, see topology.go), and partitions are cut-set predicates rather
// than per-pair state. A 10k-node two-region world is a node slice plus a
// handful of link descriptors. String IDs remain the public addressing
// scheme (Node.Send); the handles are an optimization layer that hot
// callers (benchmarks, bulk workloads) may use directly via SendID.
package netsim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Common errors returned by the simulator.
var (
	ErrUnknownNode = errors.New("netsim: unknown node")
	ErrNoRoute     = errors.New("netsim: no route between nodes")
	ErrCrashed     = errors.New("netsim: node crashed")
)

// Msg is a message in flight between two simulated nodes.
type Msg struct {
	From    string
	To      string
	Payload any
	Size    int // bytes, for bandwidth accounting; 0 means negligible
	Sent    time.Duration
}

// Handler consumes messages delivered to a node.
type Handler func(m Msg)

// Link models a unidirectional network path.
type Link struct {
	Latency   time.Duration // propagation delay
	Jitter    time.Duration // uniform random extra delay in [0, Jitter)
	Loss      float64       // probability in [0,1] that a message is dropped
	Bandwidth int64         // bytes/second; 0 means infinite
	Down      bool          // true severs the link entirely
	// Reorder is the probability in [0,1] that a message is held back by
	// ReorderDelay on top of its normal delay, letting later sends overtake
	// it. The hold bypasses the FIFO bandwidth serialization point, so this
	// is the knob for exercising out-of-order delivery deterministically
	// (the simulator's seeded RNG decides which messages are held).
	Reorder      float64
	ReorderDelay time.Duration
}

// Profiles for common link classes used across experiments.
var (
	// LANLink approximates a 1993 departmental Ethernet.
	LANLink = Link{Latency: 1 * time.Millisecond, Jitter: 200 * time.Microsecond, Bandwidth: 1_250_000}
	// WANLink approximates an inter-site wide-area path.
	WANLink = Link{Latency: 40 * time.Millisecond, Jitter: 8 * time.Millisecond, Bandwidth: 256_000}
	// LocalLink approximates same-host IPC.
	LocalLink = Link{Latency: 50 * time.Microsecond}
)

// Event kinds. Deliveries are typed events carrying their fields inline
// rather than closures: a closure per Send would allocate (and box the
// payload twice); a typed event is poolable.
const (
	evFunc uint8 = iota
	evDeliver
)

type event struct {
	at   time.Duration
	seq  uint64
	kind uint8
	// evFunc
	fn func()
	// evDeliver
	from, to NodeID
	payload  any
	size     int
	sentAt   time.Duration
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Node is a simulated host. Nodes send messages through the simulator and
// receive them via a registered handler.
type Node struct {
	id      string
	nid     NodeID
	region  RegionID
	sim     *Sim
	handler Handler
	crashed bool
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Handle returns the node's dense integer handle for use with SendID.
func (n *Node) Handle() NodeID { return n.nid }

// SetHandler installs the message handler. It may be changed between events.
func (n *Node) SetHandler(h Handler) { n.handler = h }

// Send transmits payload of the given size to node to. It never blocks; the
// message is delivered (or dropped) during simulation execution, after the
// link's loss, latency, jitter and bandwidth. Messages between the same pair
// are delivered FIFO (the bandwidth serialization point enforces this).
//
//cscw:hotpath
func (n *Node) Send(to string, payload any, size int) error {
	dst, ok := n.sim.byName[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	return n.sim.send(n, n.sim.nodes[dst], payload, size)
}

// Sim is the discrete-event simulator. Construct with New.
type Sim struct {
	now   time.Duration
	seq   uint64
	queue eventQueue
	// free is the event freelist: Step returns each popped event here after
	// copying its fields out, so steady-state Send/deliver cycles allocate
	// nothing (the pool is bounded by the high-water mark of the queue).
	free []*event
	rng  *rand.Rand

	// Node table: dense NodeID handles index nodes; byName resolves the
	// public string addressing scheme once per call at the API edge.
	byName map[string]NodeID
	nodes  []*Node

	// Three-tier link resolution (see topology.go). linkDefs is the arena
	// of link descriptors; pairIdx (tier 1) and regionLink (tier 2) hold
	// indices into it; deflt is tier 3.
	deflt      Link
	linkDefs   []Link
	pairIdx    map[pairKey]int32
	regionLink [][]int32
	regionIdx  map[string]RegionID
	regions    []string

	// pairBusy is the per-pair FIFO serialization point for bandwidth
	// modelling. Only pairs that actually transmit bytes get an entry —
	// unlike link descriptors it is inherently per-pair state, but it grows
	// with traffic, not with the node count squared.
	pairBusy map[pairKey]time.Duration

	// cuts are the active partition predicates (see topology.go).
	cuts []cut

	dropped int
	sent    int
	// delivered counts messages handed to a node handler, so harnesses can
	// reconcile sent == delivered + dropped + noHandler once the queue
	// drains (the zero-unaccounted-drops invariant).
	delivered int
	// noHandler counts deliveries that arrived at a node with no handler
	// installed — silent loss unless the node is wrapped by a fabric
	// adapter, which claims the handler at construction.
	noHandler int
}

// New creates a simulator with the given RNG seed and default link used for
// node pairs without an explicit link.
func New(seed int64, defaultLink Link) *Sim {
	return &Sim{
		rng:        rand.New(rand.NewSource(seed)),
		byName:     make(map[string]NodeID),
		deflt:      defaultLink,
		pairIdx:    make(map[pairKey]int32),
		regionLink: [][]int32{{-1}},
		regionIdx:  map[string]RegionID{defaultRegionName: DefaultRegion},
		regions:    []string{defaultRegionName},
		pairBusy:   make(map[pairKey]time.Duration),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand exposes the simulator's seeded RNG so workloads stay reproducible.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Stats reports messages sent and dropped so far.
func (s *Sim) Stats() (sent, dropped int) { return s.sent, s.dropped }

// Delivered reports messages handed to node handlers so far.
func (s *Sim) Delivered() int { return s.delivered }

// DroppedNoHandler reports deliveries lost because the destination node had
// no handler installed at delivery time.
func (s *Sim) DroppedNoHandler() int { return s.noHandler }

// AddNode registers a new node in the default region. Adding a duplicate ID
// returns an error.
func (s *Sim) AddNode(id string) (*Node, error) {
	return s.AddNodeAt(DefaultRegion, id)
}

// AddNodeAt registers a new node in the given region.
func (s *Sim) AddNodeAt(r RegionID, id string) (*Node, error) {
	if int(r) < 0 || int(r) >= len(s.regions) {
		return nil, fmt.Errorf("netsim: unknown region %d", r)
	}
	if _, ok := s.byName[id]; ok {
		return nil, fmt.Errorf("netsim: node %q already exists", id)
	}
	n := &Node{id: id, nid: NodeID(len(s.nodes)), region: r, sim: s}
	s.nodes = append(s.nodes, n)
	s.byName[id] = n.nid
	return n, nil
}

// MustAddNode is AddNode for test and benchmark setup paths where a
// duplicate ID is a programming error.
func (s *Sim) MustAddNode(id string) *Node {
	n, err := s.AddNode(id)
	if err != nil {
		panic(err)
	}
	return n
}

// MustAddNodeAt is AddNodeAt with the same panic-on-error contract.
func (s *Sim) MustAddNodeAt(r RegionID, id string) *Node {
	n, err := s.AddNodeAt(r, id)
	if err != nil {
		panic(err)
	}
	return n
}

// Node returns a registered node, or nil.
func (s *Sim) Node(id string) *Node {
	nid, ok := s.byName[id]
	if !ok {
		return nil
	}
	return s.nodes[nid]
}

// Crash marks a node dead: messages already in flight toward it and future
// sends to it are dropped (counted in Stats' dropped), and sends from it
// fail with ErrCrashed. The node's handler and identity survive, modelling
// a process crash with stable storage; Restart brings it back. Unknown IDs
// are ignored.
func (s *Sim) Crash(id string) {
	if nid, ok := s.byName[id]; ok {
		s.nodes[nid].crashed = true
	}
}

// Restart clears a node's crashed state. Messages dropped while it was down
// stay dropped — recovery is the protocol layer's job.
func (s *Sim) Restart(id string) {
	if nid, ok := s.byName[id]; ok {
		s.nodes[nid].crashed = false
	}
}

// Crashed reports whether the node is currently crashed.
func (s *Sim) Crashed(id string) bool {
	nid, ok := s.byName[id]
	return ok && s.nodes[nid].crashed
}

// newEvent takes an event from the freelist, or allocates one.
func (s *Sim) newEvent() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &event{}
}

// release returns a popped event to the freelist with its pointers cleared.
func (s *Sim) release(e *event) {
	e.fn = nil
	e.payload = nil
	s.free = append(s.free, e)
}

// schedule stamps and enqueues a pooled event at the given absolute time.
func (s *Sim) schedule(at time.Duration, e *event) {
	if at < s.now {
		at = s.now
	}
	e.at = at
	s.seq++
	e.seq = s.seq
	heap.Push(&s.queue, e)
}

// At schedules fn to run at the given delay from now.
func (s *Sim) At(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e := s.newEvent()
	e.kind = evFunc
	e.fn = fn
	s.schedule(s.now+delay, e)
}

// Every schedules fn to run every interval, starting one interval from now,
// until fn returns false. A callback that never returns false keeps the
// event queue non-empty forever, so a caller driving Run to completion gives
// its callback a condition (a deadline, a count, a done flag) to stop on.
func (s *Sim) Every(interval time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			s.At(interval, tick)
		}
	}
	s.At(interval, tick)
}

// SendID is Node.Send addressed by dense node handles, skipping the name
// lookup. Bulk workloads (benchmarks, scenario generators) resolve names
// once via Node.Handle and then drive the simulator through this entry
// point.
//
//cscw:hotpath
func (s *Sim) SendID(from, to NodeID, payload any, size int) error {
	if int(from) < 0 || int(from) >= len(s.nodes) {
		return fmt.Errorf("%w: handle %d", ErrUnknownNode, from)
	}
	if int(to) < 0 || int(to) >= len(s.nodes) {
		return fmt.Errorf("%w: handle %d", ErrUnknownNode, to)
	}
	return s.send(s.nodes[from], s.nodes[to], payload, size)
}

// send is the common delivery-scheduling path.
//
//cscw:hotpath
func (s *Sim) send(src, dst *Node, payload any, size int) error {
	l := s.linkFor(src, dst)
	s.sent++
	if src.crashed {
		s.dropped++
		return fmt.Errorf("%w: %s", ErrCrashed, src.id)
	}
	if l.Down || s.cutsBlock(src.nid, dst.nid) {
		s.dropped++
		return fmt.Errorf("%w: %s -> %s (link down)", ErrNoRoute, src.id, dst.id)
	}
	if l.Loss > 0 && s.rng.Float64() < l.Loss {
		s.dropped++
		return nil // silently lost, like the real network
	}
	busy := s.now
	key := pk(src.nid, dst.nid)
	if b, ok := s.pairBusy[key]; ok && b > busy {
		busy = b
	}
	if l.Bandwidth > 0 && size > 0 {
		transmit := time.Duration(float64(size) / float64(l.Bandwidth) * float64(time.Second))
		busy += transmit
		s.pairBusy[key] = busy
	}
	delay := busy - s.now + l.Latency
	if l.Jitter > 0 {
		delay += time.Duration(s.rng.Int63n(int64(l.Jitter)))
	}
	if l.Reorder > 0 && l.ReorderDelay > 0 && s.rng.Float64() < l.Reorder {
		delay += l.ReorderDelay
	}
	e := s.newEvent()
	e.kind = evDeliver
	e.from = src.nid
	e.to = dst.nid
	e.payload = payload
	e.size = size
	e.sentAt = s.now
	s.schedule(s.now+delay, e)
	return nil
}

// deliver dispatches an arrived message to its destination handler.
//
//cscw:hotpath
func (s *Sim) deliver(from, to NodeID, payload any, size int, sentAt time.Duration) {
	dst := s.nodes[to]
	if dst.crashed {
		s.dropped++ // arrived at a dead host
		return
	}
	if dst.handler == nil {
		s.noHandler++
		return
	}
	s.delivered++
	dst.handler(Msg{From: s.nodes[from].id, To: dst.id, Payload: payload, Size: size, Sent: sentAt})
}

// Step executes the next pending event. It reports false when the queue is
// empty.
//
//cscw:hotpath
func (s *Sim) Step() bool {
	if s.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	if e.at > s.now {
		s.now = e.at
	}
	// Copy the fields out and recycle the event before dispatch: handlers
	// may schedule new events, which then reuse this slot.
	kind := e.kind
	fn := e.fn
	from, to := e.from, e.to
	payload := e.payload
	size := e.size
	sentAt := e.sentAt
	s.release(e)
	if kind == evDeliver {
		s.deliver(from, to, payload, size, sentAt)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue drains and returns the final virtual
// time.
func (s *Sim) Run() time.Duration {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Later events stay queued.
func (s *Sim) RunUntil(deadline time.Duration) {
	for s.queue.Len() > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return s.queue.Len() }
