package group

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/vclock"
)

// Member is one group endpoint. All state is guarded by an internal mutex,
// so a member is safe to drive from the simulator goroutine and from real
// transport delivery goroutines alike. Receive-path sends and application
// callbacks (Deliver, RPC handlers and completions) are queued on
// the member's fabric.Outbox and run outside the lock, so they may freely
// call back into the member (e.g. Multicast from inside Deliver).
//
// A program installs the view on every member before traffic starts, and a
// later InstallView assumes quiescence (no multicasts in flight), as in
// primary-component virtual synchrony after flush.
type Member struct {
	id       string
	ep       fabric.Endpoint
	timer    Timer
	ordering Ordering

	// mu guards everything below, out included: effects are queued on out
	// while holding mu, and out.Drain(&m.mu) performs them with mu released.
	mu  sync.Mutex
	out *fabric.Outbox

	// pktChunk is the bump arena newPacket carves outgoing packets from.
	pktChunk []packet

	view View

	// FIFO state.
	fifoSent uint64
	fifoNext map[string]uint64
	fifoHold map[string]map[uint64]*packet
	// FIFO loss recovery (NACK-based): sent-packet retention for serving
	// repairs, and the highest sequence already NACKed per sender to damp
	// duplicate requests.
	sentBuf map[uint64]*packet
	nacked  map[string]uint64
	knownHi map[string]uint64 // per-sender advertised high-water (tail-loss detection)
	// retransmissions counts repairs served to other members (see
	// RetransmissionCount).
	retransmissions int

	// Causal state.
	vc         vclock.VC
	causalSent uint64
	causalHold []*packet

	// Total-order state (shared by sequencer and token protocols).
	msgCounter uint64
	nextGlobal uint64
	held       map[uint64]*packet // ordered messages by global seq, awaiting nextGlobal
	seqNext    uint64             // next seq this sequencer/token will assign
	// Sequencer protocol: a member's own messages awaiting their order, by
	// MsgID.N, and the lowest N that may still be among them; and, at the
	// sequencer, what it has ordered of each origin's messages.
	own       map[uint64]*packet
	ownLow    uint64
	sequenced map[string]*seqMark
	hasToken  bool
	tokenWait []string        // pending token requesters, in request order
	waitKnown map[string]bool // dedup for tokenWait
	outbox    []*packet       // token protocol: sends queued awaiting token

	// The send buffer every Multicast goes through (see batch.go).
	batch      BatchConfig
	limit      int       // batchBuf flushes at this length; 1 unless batching is configured
	batchBuf   []*packet // stamped messages awaiting the flush
	batchArmed bool      // an accumulation-window timer is pending

	// RPC state.
	callCounter uint64
	handlers    map[string]HandlerFunc
	calls       map[uint64]*pendingCall

	// Metrics.
	delivered uint64
}

// pktChunkSize sizes the packet arena chunks handed out by newPacket.
const pktChunkSize = 64

// newPacket carves an outgoing packet from the member's bump arena: one
// backing allocation serves pktChunkSize packets on the multicast hot
// path. Packets are never recycled — over netsim a *packet is shared by
// every receiver, and FIFO retains sent packets for NACK repair — so the
// arena only amortises allocation; it must not reuse storage. Called with
// m.mu held.
func (m *Member) newPacket() *packet {
	if len(m.pktChunk) == 0 {
		m.pktChunk = make([]packet, pktChunkSize)
	}
	p := &m.pktChunk[0]
	m.pktChunk = m.pktChunk[1:]
	return p
}

// HandlerFunc services a group RPC operation.
type HandlerFunc func(from string, body any) (any, error)

// Reply is one member's response to a group RPC.
type Reply struct {
	From string
	Body any
	Err  error
}

type pendingCall struct {
	need     int // the view's size: a call waits for every member
	replies  []Reply
	done     bool
	callback func([]Reply, error)
}

// Config configures a new member.
type Config struct {
	Endpoint fabric.Endpoint
	Timer    Timer
	Ordering Ordering
	Deliver  DeliverFunc
	// Batch raises the send buffer's flush limit above one message for
	// FIFO and the two total orders (see batch.go); the zero value keeps
	// one packet per Multicast. A non-zero Window requires Timer.
	Batch BatchConfig
}

// NewMember creates a group member on the given fabric endpoint and claims
// the endpoint's handler. The member is inert until a view containing it is
// installed.
func NewMember(cfg Config) (*Member, error) {
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("group: config needs an endpoint")
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("group: config needs a deliver callback")
	}
	if cfg.Ordering == 0 {
		cfg.Ordering = FIFO
	}
	if cfg.Batch.Window > 0 && cfg.Timer == nil {
		return nil, fmt.Errorf("group: a batch window requires a timer")
	}
	// The ordering state is InstallView's to make: until a view names this
	// member, Receive drops every packet and Multicast fails.
	m := &Member{
		id:       cfg.Endpoint.ID(),
		ep:       cfg.Endpoint,
		timer:    cfg.Timer,
		ordering: cfg.Ordering,
		handlers: make(map[string]HandlerFunc),
		calls:    make(map[uint64]*pendingCall),
		batch:    cfg.Batch,
		limit:    cfg.Batch.limit(cfg.Ordering),
	}
	// A delivered packet is never modified (receivers share it), so the
	// Delivery is built when the outbox performs it. cfg.Deliver is
	// immutable after NewMember, so calling it without the lock is safe.
	deliver := cfg.Deliver
	m.out = fabric.NewOutbox(cfg.Endpoint, func(payload any, seq uint64) {
		pkt := payload.(*packet)
		deliver(Delivery{From: pkt.origin(), Body: pkt.Body, Seq: seq, VC: pkt.VC, ViewID: pkt.ViewID})
	})
	cfg.Endpoint.SetHandler(func(from string, payload any, size int) {
		m.Receive(from, payload)
	})
	return m, nil
}

// Delivered returns the count of messages delivered to the application.
func (m *Member) Delivered() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered
}

// RetransmissionCount returns the number of repairs served to other
// members.
func (m *Member) RetransmissionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retransmissions
}

// InstallView installs a membership view locally, resetting ordering state.
func (m *Member) InstallView(v View) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.view = v
	m.fifoSent = 0
	m.fifoNext = make(map[string]uint64)
	m.fifoHold = make(map[string]map[uint64]*packet)
	m.sentBuf = make(map[uint64]*packet)
	m.nacked = make(map[string]uint64)
	m.knownHi = make(map[string]uint64)
	m.vc = vclock.New()
	m.causalSent = 0
	m.causalHold = nil
	m.nextGlobal = 1
	m.seqNext = 1
	m.held = make(map[uint64]*packet)
	m.own = make(map[uint64]*packet)
	m.ownLow = m.msgCounter + 1
	m.sequenced = make(map[string]*seqMark)
	m.outbox = nil
	m.batchBuf = nil // view change assumes quiescence; unsent buffered messages drop with it
	m.tokenWait = nil
	m.waitKnown = make(map[string]bool)
	m.hasToken = m.ordering == TotalToken && v.Sequencer() == m.id
}

// Multicast delivers body to every member of the current view (including
// the caller) with the configured ordering guarantee. size is the payload
// size hint for bandwidth accounting. The stamped message joins the send
// buffer (see batch.go), which flushes when it reaches its limit — at once
// unless batching is configured — when the window elapses, or when Flush is
// called. A flush this call triggers is sent before it returns and its
// first send error is reported; a message left in the buffer goes out
// later, fire-and-forget.
//
//cscw:hotpath
func (m *Member) Multicast(body any, size int) error {
	m.mu.Lock()
	if !m.view.Contains(m.id) {
		m.mu.Unlock()
		return ErrNotMember
	}
	pkt := m.newPacket()
	*pkt = packet{Kind: kData, From: m.id, ViewID: m.view.ID, Body: body, Size: size}
	m.stamp(pkt)
	m.batchBuf = append(m.batchBuf, pkt)
	var out *packet
	var targets []string
	if len(m.batchBuf) >= m.limit {
		out, targets = m.flush()
	} else if m.batch.Window > 0 && !m.batchArmed {
		m.batchArmed = true
		// One timer closure per accumulation window, amortized over the whole batch.
		m.timer.After(m.batch.Window, m.batchTimerFire)
	}
	m.out.Drain(&m.mu) // releases m.mu: the sends below must not run under it
	if out == nil {
		return nil
	}
	return m.sendToAll(targets, out)
}

// stamp gives an outgoing data packet its identity under the configured
// ordering: the per-sender sequence (FIFO), the vector timestamp (Causal)
// or the message ID the total orders pair with a global sequence number.
// A sequencer-protocol member other than the sequencer keeps the packet
// until the sequencer's order for it comes back. The global sequence of a
// token holder's or the sequencer's own run is stamped at flush (wireRun).
// Called with m.mu held.
func (m *Member) stamp(pkt *packet) {
	switch m.ordering {
	case FIFO:
		m.fifoSent++
		pkt.SenderSeq = m.fifoSent
		m.sentBuf[pkt.SenderSeq] = pkt
		// Bound retention: repairs reach back at most retainWindow sends.
		if old := pkt.SenderSeq - retainWindow; old > 0 {
			delete(m.sentBuf, old)
		}
	case Causal:
		m.causalSent++
		// Sized for the member's own entry too: m.vc may not hold it yet,
		// and writing it into a full-sized clone would grow the map.
		stamp := make(vclock.VC, len(m.vc)+1)
		maps.Copy(stamp, m.vc)
		stamp[m.id] = m.causalSent
		pkt.VC = stamp
	case TotalSequencer, TotalToken:
		m.msgCounter++
		pkt.MsgID = msgID{Origin: m.id, N: m.msgCounter}
		if m.ordering == TotalSequencer && m.view.Sequencer() != m.id {
			m.own[m.msgCounter] = pkt
		}
	}
}

// viewTargets returns the current view's membership for fan-out, without
// copying: View.Members is immutable once installed (see the View doc), and
// a view change installs a wholly new slice, so a fan-out running after the
// lock is released still ranges over exactly the snapshot it captured.
func (m *Member) viewTargets() []string {
	return m.view.Members
}

// sendToAll fans pkt out to targets. It must be called without m.mu held —
// a Send can block over a real transport, and a member that sends while
// locked can deadlock with a peer doing the same, or with its own reader
// handing it a self-send (TestNoSendUnderMemberLock fails on any send under
// m.mu). Best-effort: every target is attempted even when some sends
// fail (partial failure must not silence members listed after the first
// unreachable one; under netsim, whose self-link can drop, that includes
// self-delivery, which nothing repairs). The first error is reported after
// all attempts.
func (m *Member) sendToAll(targets []string, pkt *packet) error {
	var first error
	for _, id := range targets {
		if err := m.ep.Send(id, pkt, pkt.Size+64); err != nil && first == nil {
			first = fmt.Errorf("multicast to %s: %w", id, err)
		}
	}
	return first
}

// queueSendToView schedules a fire-and-forget fan-out of pkt to the current
// view on the outbox: targets are snapshotted now, under the lock, and the
// sends run once m.mu is released, in queue order (which preserves their
// order relative to queued deliveries). Receive-path protocol sends use
// this; a loss surfaces as stalled delivery, repaired by NACK/SyncPoint or
// measured by the experiments.
func (m *Member) queueSendToView(pkt *packet) {
	m.out.QueueAll(m.viewTargets(), pkt, pkt.Size+64)
}

// Receive ingests a packet from the endpoint. NewMember wires the
// endpoint's handler to call this with the delivered payload; tests may
// also call it directly to hand-craft traffic. from is the transport's
// sender, and a packet counts only if it names that sender as its From and
// the sender is in the installed view; a batch counts only if every message
// in it names that sender too, so no one speaks for another member or from
// outside the view. Beyond that, only the sequencer may announce an order,
// and only the token protocol's members take its packets.
func (m *Member) Receive(from string, payload any) {
	pkt, ok := payload.(*packet)
	if !ok {
		return // foreign traffic on a shared endpoint; not ours
	}
	m.mu.Lock()
	if pkt.From != from || !m.view.Contains(from) || pkt.Kind == kBatch && !sentBy(from, pkt.Msgs) {
		m.mu.Unlock()
		return
	}
	switch pkt.Kind {
	case kData:
		m.receiveMsgs(from, pkt)
	case kBatch:
		m.receiveMsgs(from, pkt.Msgs...)
	case kOrder:
		// An announcement from any other member would make this member
		// deliver in an order the rest of the view does not.
		if from == m.view.Sequencer() {
			m.receiveOrder(pkt)
		}
	case kToken:
		// The token protocol's packets mean nothing to the others; taken,
		// a token would reset a sequencer's next position.
		if m.ordering == TotalToken {
			m.receiveToken(pkt)
		}
	case kTokenReq:
		if m.ordering == TotalToken {
			m.receiveTokenReq(pkt)
		}
	case kNack:
		m.receiveNack(pkt)
	case kSync:
		m.receiveSync(pkt)
	case kRPCReq:
		m.receiveRPCRequest(pkt)
	case kRPCRep:
		m.receiveRPCReply(pkt)
	}
	m.out.Drain(&m.mu)
}

// sentBy reports whether every packet of a batch names from as its sender.
func sentBy(from string, msgs []*packet) bool {
	for _, p := range msgs {
		if p.From != from {
			return false
		}
	}
	return true
}

func (m *Member) emit(pkt *packet, seq uint64) {
	m.delivered++
	m.out.Deliver(pkt, seq)
}

// receiveMsgs files a run of data packets — one bare kData, or the contents
// of a kBatch — under the configured ordering. Under the sequencer protocol
// data travels to the sequencer alone, which orders and forwards the run;
// anywhere else it is off-protocol and dropped. Token runs arrive
// pre-stamped by the holder.
//
//cscw:hotpath
func (m *Member) receiveMsgs(from string, msgs ...*packet) {
	switch m.ordering {
	case Unordered:
		for _, p := range msgs {
			m.emit(p, 0)
		}
	case FIFO:
		for _, p := range msgs {
			m.receiveFIFO(p)
		}
	case Causal:
		for _, p := range msgs {
			m.receiveCausal(p)
		}
	case TotalSequencer:
		if m.view.Sequencer() == m.id {
			m.sequenceRun(from, msgs)
		}
	case TotalToken:
		for _, p := range msgs {
			m.hold(p.GlobalSeq, p)
		}
		m.drainTotal()
	}
}

// reorderWindow is how far a sequencer-protocol message may fall behind
// later ones from its origin: the sequencer gives up on a message once it
// has ordered one reorderWindow numbers above it, and the origin forgets it
// then too, so a message overtaken that far counts as lost.
const reorderWindow = 512

// seqMark is what the sequencer has ordered of one origin's messages: every
// number up to hw, and the numbers above hw in above — a reordering link
// lets a later message overtake an earlier one, so a bare high-water mark
// would drop the earlier one as a replay.
type seqMark struct {
	hw    uint64
	above map[uint64]struct{}
}

// first records n and reports whether it is new. Holes more than
// reorderWindow below n are given up, so above never holds more than
// reorderWindow numbers.
func (s *seqMark) first(n uint64) bool {
	if n <= s.hw {
		return false
	}
	if _, dup := s.above[n]; dup {
		return false
	}
	if n-s.hw > reorderWindow {
		floor := n - reorderWindow
		for k := range s.above {
			if k <= floor {
				delete(s.above, k)
			}
		}
		s.hw = floor
	}
	if n == s.hw+1 {
		s.hw = n
	} else {
		if s.above == nil {
			s.above = make(map[uint64]struct{})
		}
		s.above[n] = struct{}{}
	}
	for {
		if _, ok := s.above[s.hw+1]; !ok {
			return true
		}
		delete(s.above, s.hw+1)
		s.hw++
	}
}

// sequenceRun is the sequencer's half of the total order for a run that
// member from sent it. The run's messages from that origin not already
// ordered take the next contiguous stretch of the global sequence (order);
// the origin, which kept its messages, is told their positions by the
// body-less kOrder (one MsgID for a single message, MsgIDs from GlobalSeq
// upward for more), and every other member gets the messages themselves in
// the body-carrying one. Receive has checked that from is in the view and
// sent each message; one whose MsgID names another origin, or a run from
// the sequencer itself, is off-protocol and dropped. Announcements ride
// reliable sim links; a loss means a partition, surfaced by stalled
// delivery which the experiments measure.
func (m *Member) sequenceRun(from string, msgs []*packet) {
	if from == m.id {
		return
	}
	mark := m.sequenced[from]
	if mark == nil {
		mark = &seqMark{}
		m.sequenced[from] = mark
	}
	// run is the messages to order: msgs itself, unless one of them is not.
	run, copied := msgs, false
	for i, p := range msgs {
		fresh := p.MsgID.Origin == from && mark.first(p.MsgID.N)
		if !fresh && !copied {
			run, copied = append([]*packet(nil), msgs[:i]...), true
		} else if fresh && copied {
			run = append(run, p)
		}
	}
	if len(run) == 0 {
		return
	}
	ack := m.newPacket()
	*ack = packet{Kind: kOrder, From: m.id, ViewID: m.view.ID, GlobalSeq: m.seqNext}
	if len(run) == 1 {
		ack.MsgID = run[0].MsgID
	} else {
		ack.MsgIDs = make([]msgID, len(run))
		for i, p := range run {
			ack.MsgIDs[i] = p.MsgID
		}
	}
	fwd := m.order(run)
	for _, id := range m.view.Members {
		switch id {
		case m.id:
		case from:
			m.out.Queue(id, ack, ack.Size+64)
		default:
			m.out.Queue(id, fwd, fwd.Size+64)
		}
	}
	m.drainTotal() // queued behind the sends: the others need not wait for this member's application
}

// order gives a run of messages the next contiguous stretch of the global
// sequence, files them for delivery here (the caller drains them), and
// returns the body-carrying kOrder that announces them to the members that
// do not hold them: a single message flattened into the announcement, a
// longer run as its Msgs from GlobalSeq upward. run is not retained.
// Called with m.mu held, at the sequencer only.
//
//cscw:hotpath
func (m *Member) order(run []*packet) *packet {
	fwd := m.newPacket()
	if len(run) == 1 {
		p := run[0]
		*fwd = packet{Kind: kOrder, From: m.id, ViewID: m.view.ID, Body: p.Body, Size: p.Size, MsgID: p.MsgID, GlobalSeq: m.seqNext}
	} else {
		*fwd = packet{Kind: kOrder, From: m.id, ViewID: m.view.ID, GlobalSeq: m.seqNext, Msgs: make([]*packet, len(run))}
		for i, p := range run {
			fwd.Msgs[i] = p
			fwd.Size += p.Size
		}
	}
	for _, p := range run {
		m.hold(m.seqNext, p)
		m.seqNext++
	}
	return fwd
}

// retainWindow bounds the FIFO repair buffer per sender.
const retainWindow = 512

func (m *Member) receiveFIFO(pkt *packet) {
	next, ok := m.fifoNext[pkt.From]
	if !ok {
		next = 1
		m.fifoNext[pkt.From] = 1
	}
	if pkt.SenderSeq < next {
		return // duplicate (possibly a repair that arrived twice)
	}
	hold := m.fifoHold[pkt.From]
	if hold == nil {
		// One hold-back map per newly seen sender per view, not per message.
		hold = make(map[uint64]*packet)
		m.fifoHold[pkt.From] = hold
	}
	hold[pkt.SenderSeq] = pkt
	for {
		p, ok := hold[m.fifoNext[pkt.From]]
		if !ok {
			break
		}
		delete(hold, m.fifoNext[pkt.From])
		m.fifoNext[pkt.From]++
		m.emit(p, 0)
	}
	// Loss recovery: an out-of-order arrival reveals a gap; NACK the
	// missing range back to the sender (once per high-water mark, so a
	// burst of held-back packets does not storm).
	if pkt.From != m.id {
		m.maybeNack(pkt.From)
	}
}

// maybeNack requests the first missing run from sender if a gap exists and
// that run has not already been requested. The run ends at the packet just
// before the earliest held one, or — when nothing is held — at the sender's
// advertised high-water mark (tail loss, learnt from SyncPoint). Later
// holes are recovered progressively as earlier ones fill (or by
// RequestRepair).
func (m *Member) maybeNack(sender string) {
	next := m.fifoNext[sender]
	if next == 0 {
		next = 1
	}
	var target uint64
	if hold := m.fifoHold[sender]; len(hold) > 0 {
		minHeld := uint64(0)
		for seq := range hold {
			if minHeld == 0 || seq < minHeld {
				minHeld = seq
			}
		}
		if minHeld <= next {
			return
		}
		target = minHeld - 1
	} else if hi := m.knownHi[sender]; hi >= next {
		target = hi
	} else {
		return
	}
	if m.nacked[sender] >= target {
		return
	}
	m.nacked[sender] = target
	nack := &packet{Kind: kNack, From: m.id, ViewID: m.view.ID, NackFrom: next, NackTo: target}
	// A lost NACK is re-armed by the next out-of-order arrival.
	m.out.Queue(sender, nack, 64)
}

// SyncPoint advertises this member's FIFO send high-water mark to the view,
// letting receivers detect and repair *tail* loss (a lost final message
// reveals no gap by itself). Schedule it periodically over lossy links.
func (m *Member) SyncPoint() error {
	m.mu.Lock()
	if m.ordering != FIFO || !m.view.Contains(m.id) {
		m.mu.Unlock()
		return nil
	}
	pkt := &packet{Kind: kSync, From: m.id, ViewID: m.view.ID, SenderSeq: m.fifoSent}
	targets := m.viewTargets()
	m.out.Drain(&m.mu) // releases m.mu: sends must not run under the lock
	return m.sendToAll(targets, pkt)
}

func (m *Member) receiveSync(pkt *packet) {
	if pkt.From == m.id {
		return
	}
	if pkt.SenderSeq > m.knownHi[pkt.From] {
		m.knownHi[pkt.From] = pkt.SenderSeq
	}
	m.maybeNack(pkt.From)
}

// RequestRepair re-scans every sender's hold-back queue and NACKs any
// outstanding gaps, ignoring the damping high-water mark. Schedule it on a
// timer for sessions over lossy links (a lost NACK or a lost repair
// otherwise only recovers when more traffic arrives).
func (m *Member) RequestRepair() {
	m.mu.Lock()
	senders := make(map[string]bool, len(m.fifoHold)+len(m.knownHi))
	for s := range m.fifoHold {
		senders[s] = true
	}
	for s := range m.knownHi {
		senders[s] = true
	}
	// Deterministic NACK order keeps seeded simulations replayable.
	ordered := make([]string, 0, len(senders))
	for s := range senders {
		ordered = append(ordered, s)
	}
	sort.Strings(ordered)
	for _, sender := range ordered {
		if sender == m.id {
			continue
		}
		m.nacked[sender] = 0
		m.maybeNack(sender)
	}
	m.out.Drain(&m.mu) // releases m.mu and sends the NACKs now
}

// receiveNack serves a repair request from sentBuf. The walk is clamped to
// the sequences sentBuf can hold, so a NACK costs at most retainWindow
// lookups under m.mu whatever range it names.
func (m *Member) receiveNack(pkt *packet) {
	lo, hi := pkt.NackFrom, min(pkt.NackTo, m.fifoSent)
	if m.fifoSent > retainWindow {
		lo = max(lo, m.fifoSent-retainWindow+1)
	}
	for seq := lo; seq <= hi; seq++ {
		p, ok := m.sentBuf[seq]
		if !ok {
			continue // aged out of the retention window
		}
		m.retransmissions++
		m.out.Queue(pkt.From, p, p.Size+64)
	}
}

func (m *Member) receiveCausal(pkt *packet) {
	m.causalHold = append(m.causalHold, pkt)
	m.drainCausal()
}

func (m *Member) drainCausal() {
	for {
		progressed := false
		for i, p := range m.causalHold {
			if p == nil {
				continue
			}
			if vclock.Deliverable(p.VC, p.From, m.vc) {
				m.causalHold[i] = nil
				m.vc.Merge(p.VC)
				m.emit(p, 0)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	// Compact the hold-back queue.
	live := m.causalHold[:0]
	for _, p := range m.causalHold {
		if p != nil {
			live = append(live, p)
		}
	}
	m.causalHold = live
}

// receiveOrder files the messages a sequencer's announcement places: its
// own, named by MsgID or MsgIDs, from m.own, and anyone else's from the
// announcement itself (flattened into it, or its Msgs).
func (m *Member) receiveOrder(pkt *packet) {
	switch {
	case len(pkt.Msgs) > 0:
		for i, p := range pkt.Msgs {
			m.hold(pkt.GlobalSeq+uint64(i), p)
		}
	case len(pkt.MsgIDs) > 0:
		for i, id := range pkt.MsgIDs {
			m.holdOwn(pkt.GlobalSeq+uint64(i), id)
		}
	case pkt.MsgID.Origin == m.id:
		m.holdOwn(pkt.GlobalSeq, pkt.MsgID)
	default:
		m.hold(pkt.GlobalSeq, pkt)
	}
	m.drainTotal()
}

// hold files message p at global position seq until every position below
// it has been delivered. A position already delivered or already filed
// keeps what it has: the packet is a replay.
func (m *Member) hold(seq uint64, p *packet) {
	if _, dup := m.held[seq]; seq >= m.nextGlobal && !dup {
		m.held[seq] = p
	}
}

// holdOwn files this member's own message id at seq, and forgets the own
// messages reorderWindow or more numbers below it, which the sequencer has
// given up on.
func (m *Member) holdOwn(seq uint64, id msgID) {
	p, ok := m.own[id.N]
	if id.Origin != m.id || !ok {
		return
	}
	delete(m.own, id.N)
	for ; m.ownLow+reorderWindow <= id.N; m.ownLow++ {
		delete(m.own, m.ownLow)
	}
	m.hold(seq, p)
}

func (m *Member) drainTotal() {
	for {
		p, ok := m.held[m.nextGlobal]
		if !ok {
			return
		}
		delete(m.held, m.nextGlobal)
		seq := m.nextGlobal
		m.nextGlobal++
		m.emit(p, seq)
	}
}

func (m *Member) receiveToken(pkt *packet) {
	// Everyone tracks token movement so requester bookkeeping stays
	// consistent; only the target becomes the holder.
	target, _ := pkt.Body.(string)
	delete(m.waitKnown, target)
	live := m.tokenWait[:0]
	for _, w := range m.tokenWait {
		if w != target {
			live = append(live, w)
		}
	}
	m.tokenWait = live
	if target != m.id {
		m.hasToken = false
		return
	}
	m.hasToken = true
	m.seqNext = pkt.GlobalSeq
	m.drainOutbox()
	m.maybePassToken()
}

func (m *Member) receiveTokenReq(pkt *packet) {
	if pkt.From == m.id {
		return
	}
	if !m.waitKnown[pkt.From] {
		m.waitKnown[pkt.From] = true
		m.tokenWait = append(m.tokenWait, pkt.From)
	}
	if m.hasToken {
		m.maybePassToken()
	}
}

// drainOutbox ships the backlog parked while the token was away, as runs of
// at most the flush limit. A lost send stalls delivery, which measurements
// surface.
func (m *Member) drainOutbox() {
	backlog := m.outbox
	m.outbox = nil
	for len(backlog) > 0 {
		n := min(m.limit, len(backlog))
		pkt, targets := m.wireRun(backlog[:n])
		m.out.QueueAll(targets, pkt, pkt.Size+64)
		backlog = backlog[n:]
	}
}

func (m *Member) maybePassToken() {
	if !m.hasToken || len(m.tokenWait) == 0 || len(m.outbox) > 0 || len(m.batchBuf) > 0 {
		return
	}
	next := m.tokenWait[0]
	m.hasToken = false
	tok := &packet{Kind: kToken, From: m.id, ViewID: m.view.ID, Body: next, GlobalSeq: m.seqNext}
	m.queueSendToView(tok)
}

// Handle registers an RPC handler for op.
func (m *Member) Handle(op string, h HandlerFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[op] = h
}

// CallOpts configures a group RPC.
type CallOpts struct {
	Deadline time.Duration // 0 means no deadline (requires every reply to arrive)
}

// Call invokes op with body on every member of the view (group invocation).
// done is called exactly once: with every member's reply, or with the
// replies so far and ErrRPCDeadline if the deadline passes first.
func (m *Member) Call(op string, body any, opts CallOpts, done func([]Reply, error)) error {
	m.mu.Lock()
	if !m.view.Contains(m.id) {
		m.mu.Unlock()
		return ErrNotMember
	}
	m.callCounter++
	id := m.callCounter
	pc := &pendingCall{need: len(m.view.Members), callback: done}
	m.calls[id] = pc
	if opts.Deadline > 0 {
		if m.timer == nil {
			delete(m.calls, id)
			m.mu.Unlock()
			return fmt.Errorf("group: deadline requires a timer")
		}
		m.timer.After(opts.Deadline, func() {
			m.mu.Lock()
			c, ok := m.calls[id]
			if !ok || c.done {
				m.out.Drain(&m.mu)
				return
			}
			c.done = true
			delete(m.calls, id)
			m.out.Call(func() { c.callback(c.replies, ErrRPCDeadline) })
			m.out.Drain(&m.mu)
		})
	}
	req := &packet{Kind: kRPCReq, From: m.id, ViewID: m.view.ID, CallID: id, Op: op, Body: body}
	targets := m.viewTargets()
	m.out.Drain(&m.mu) // releases m.mu: the fan-out below must not run under it
	return m.sendToAll(targets, req)
}

func (m *Member) receiveRPCRequest(pkt *packet) {
	h, ok := m.handlers[pkt.Op]
	// Run the handler outside the lock: handlers may multicast or call
	// back into the member.
	m.out.Call(func() {
		rep := &packet{Kind: kRPCRep, From: m.id, ViewID: pkt.ViewID, CallID: pkt.CallID}
		if !ok {
			rep.IsError = true
			rep.ErrText = ErrNoSuchCall.Error() + ": " + pkt.Op
		} else {
			out, err := h(pkt.From, pkt.Body)
			if err != nil {
				rep.IsError = true
				rep.ErrText = err.Error()
			} else {
				rep.Body = out
			}
		}
		if err := m.ep.Send(pkt.From, rep, 64); err != nil {
			_ = err // caller's deadline covers lost replies
		}
	})
}

func (m *Member) receiveRPCReply(pkt *packet) {
	pc, ok := m.calls[pkt.CallID]
	if !ok || pc.done {
		return
	}
	r := Reply{From: pkt.From, Body: pkt.Body}
	if pkt.IsError {
		r.Err = fmt.Errorf("%s: %s", pkt.From, pkt.ErrText)
	}
	pc.replies = append(pc.replies, r)
	if len(pc.replies) >= pc.need {
		pc.done = true
		delete(m.calls, pkt.CallID)
		// Deterministic reply order for callers that inspect replies.
		sort.Slice(pc.replies, func(i, j int) bool { return pc.replies[i].From < pc.replies[j].From })
		m.out.Call(func() { pc.callback(pc.replies, nil) })
	}
}
