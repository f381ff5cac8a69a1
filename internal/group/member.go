package group

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/vclock"
)

// Member is one group endpoint. All state is guarded by an internal mutex,
// so a member is safe to drive from the simulator goroutine and from real
// transport delivery goroutines alike. Application callbacks (Deliver,
// OnView, RPC handlers and completions) run outside the lock, so they may
// freely call back into the member (e.g. Multicast from inside Deliver).
//
// View installation assumes quiescence (no multicasts in flight), as in
// primary-component virtual synchrony after flush; the experiment harnesses
// install views between traffic phases.
type Member struct {
	id       string
	ep       fabric.Endpoint
	timer    Timer
	ordering Ordering
	deliver  DeliverFunc
	onView   ViewFunc

	// mu guards everything below. cbs collects application callbacks
	// queued while holding mu; runCallbacks flushes them with mu
	// released (flushing marks a flush in progress so nested entries
	// leave the queue for the outer loop). cbsSpare recycles the previous
	// flush's backing array so a steady delivery stream does not allocate
	// a fresh queue per Receive.
	mu       sync.Mutex
	cbs      []cb
	cbsSpare []cb
	flushing bool

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
	pendingMsg map[msgID]*packet // data waiting for an order assignment
	orderOf    map[uint64]msgID  // global seq -> message identity
	seqOf      map[msgID]uint64  // message identity -> global seq
	seqNext    uint64            // next seq this sequencer/token will assign
	hasToken   bool
	tokenWait  []string        // pending token requesters, in request order
	waitKnown  map[string]bool // dedup for tokenWait
	outbox     []*packet       // token protocol: sends queued awaiting token

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

// cb is one queued application callback. The overwhelmingly common entry —
// a message delivery — is stored inline (del/isDel) rather than as a
// closure, keeping the multicast hot path free of a per-delivery closure
// allocation; everything else (view notifications, queued sends, RPC
// completions) rides fn.
type cb struct {
	fn    func()
	del   Delivery
	isDel bool
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

// CallMode selects how many replies a group RPC waits for.
type CallMode int

const (
	// WaitAll waits for a reply from every view member.
	WaitAll CallMode = iota + 1
	// WaitQuorum waits for a majority of view members.
	WaitQuorum
	// WaitFirst returns as soon as any member replies.
	WaitFirst
)

type pendingCall struct {
	mode     CallMode
	need     int
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
	OnView   ViewFunc
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
	m := &Member{
		id:         cfg.Endpoint.ID(),
		ep:         cfg.Endpoint,
		timer:      cfg.Timer,
		ordering:   cfg.Ordering,
		deliver:    cfg.Deliver,
		onView:     cfg.OnView,
		fifoNext:   make(map[string]uint64),
		fifoHold:   make(map[string]map[uint64]*packet),
		sentBuf:    make(map[uint64]*packet),
		nacked:     make(map[string]uint64),
		knownHi:    make(map[string]uint64),
		vc:         vclock.New(),
		pendingMsg: make(map[msgID]*packet),
		orderOf:    make(map[uint64]msgID),
		seqOf:      make(map[msgID]uint64),
		waitKnown:  make(map[string]bool),
		handlers:   make(map[string]HandlerFunc),
		calls:      make(map[uint64]*pendingCall),
		batch:      cfg.Batch,
		limit:      cfg.Batch.limit(cfg.Ordering),
	}
	cfg.Endpoint.SetHandler(func(from string, payload any, size int) {
		m.Receive(from, payload)
	})
	return m, nil
}

// runCallbacks is called with m.mu held and returns with it released,
// having run every queued application callback outside the lock. A nested
// entry (a callback calling back into the member) leaves its additions for
// the outer flush loop.
func (m *Member) runCallbacks() {
	if m.flushing {
		m.mu.Unlock()
		return
	}
	m.flushing = true
	for len(m.cbs) > 0 {
		batch := m.cbs
		m.cbs = m.cbsSpare[:0]
		m.cbsSpare = nil
		m.mu.Unlock()
		for i := range batch {
			// m.deliver is immutable after NewMember, so reading it
			// without the lock is safe.
			if batch[i].isDel {
				m.deliver(batch[i].del)
			} else {
				batch[i].fn()
			}
		}
		m.mu.Lock()
		if m.cbsSpare == nil {
			clear(batch) // drop body/closure references before recycling
			m.cbsSpare = batch[:0]
		}
	}
	m.flushing = false
	m.mu.Unlock()
}

// ID returns the member identifier.
func (m *Member) ID() string { return m.id }

// View returns the currently installed view.
func (m *Member) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
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

// Ordering returns the configured delivery ordering.
func (m *Member) Ordering() Ordering { return m.ordering }

// InstallView installs a membership view locally, resetting ordering state.
func (m *Member) InstallView(v View) {
	m.mu.Lock()
	m.installView(v)
	m.runCallbacks()
}

func (m *Member) installView(v View) {
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
	m.pendingMsg = make(map[msgID]*packet)
	m.orderOf = make(map[uint64]msgID)
	m.seqOf = make(map[msgID]uint64)
	m.outbox = nil
	m.batchBuf = nil // view change assumes quiescence; unsent buffered messages drop with it
	m.tokenWait = nil
	m.waitKnown = make(map[string]bool)
	m.hasToken = m.ordering == TotalToken && v.Sequencer() == m.id
	if m.onView != nil {
		onView := m.onView
		m.cbs = append(m.cbs, cb{fn: func() { onView(v) }})
	}
}

// ProposeView multicasts a view to the union of old and new membership;
// every receiver (including the proposer) installs it.
func (m *Member) ProposeView(v View) error {
	m.mu.Lock()
	targets := map[string]bool{m.id: true}
	for _, id := range m.view.Members {
		targets[id] = true
	}
	for _, id := range v.Members {
		targets[id] = true
	}
	// Deterministic send order keeps seeded simulations replayable.
	ids := make([]string, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	pkt := &packet{Kind: kView, From: m.id, NewView: &v}
	m.runCallbacks() // releases m.mu: sends must not run under the lock
	for _, id := range ids {
		if err := m.ep.Send(id, pkt, 64); err != nil {
			return fmt.Errorf("propose view to %s: %w", id, err)
		}
	}
	return nil
}

// Multicast sends body to every member of the current view (including the
// caller) with the configured ordering guarantee. size is the payload size
// hint for bandwidth accounting. The stamped message joins the send buffer
// (see batch.go), which flushes when it reaches its limit — at once unless
// batching is configured — when the window elapses, or when Flush is
// called. A flush this call triggers is fanned out before it returns and
// its first send error is reported; a message left in the buffer goes out
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
	if len(m.batchBuf) >= m.limit {
		out = m.flush()
	} else if m.batch.Window > 0 && !m.batchArmed {
		m.batchArmed = true
		//lint:ignore hot-alloc one timer closure per accumulation window, amortized over the whole batch
		m.timer.After(m.batch.Window, m.batchTimerFire)
	}
	targets := m.viewTargets()
	m.runCallbacks() // releases m.mu: the fan-out below must not run under it
	if out == nil {
		return nil
	}
	return m.sendToAll(targets, out)
}

// stamp gives an outgoing data packet its identity under the configured
// ordering: the per-sender sequence (FIFO), the vector timestamp (Causal)
// or the message ID the total orders pair with a global sequence number.
// The token protocol's global sequence is stamped at flush, when the run
// is known to hold the token (wireRun). Called with m.mu held.
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
		stamp := m.vc.Clone()
		stamp[m.id] = m.causalSent
		pkt.VC = stamp
	case TotalSequencer, TotalToken:
		m.msgCounter++
		pkt.MsgID = msgID{Origin: m.id, N: m.msgCounter}
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
// locked can deadlock with a peer doing the same (cscwlint's block-lock rule
// enforces this). Best-effort: every target is attempted even when some
// sends fail (partial failure must not silence members listed after the
// first unreachable one — self-delivery in particular is unrepairable).
// The first error is reported after all attempts.
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
// view on the callback queue: targets are snapshotted now, under the lock,
// and the sends run once m.mu is released, in queue order (which preserves
// their order relative to queued deliveries). Receive-path protocol sends
// use this; a loss surfaces as stalled delivery, repaired by NACK/SyncPoint
// or measured by the experiments.
func (m *Member) queueSendToView(pkt *packet) {
	targets := m.viewTargets()
	//lint:ignore hot-alloc one fan-out closure per protocol exchange (order/token/batch), amortized across the batch; the allocs_test budget tracks it
	m.cbs = append(m.cbs, cb{fn: func() {
		for _, id := range targets {
			_ = m.ep.Send(id, pkt, pkt.Size+64)
		}
	}})
}

// queueSend schedules one fire-and-forget send the same way.
func (m *Member) queueSend(to string, pkt *packet, size int) {
	//lint:ignore hot-alloc NACK repair traffic only, never the steady-state delivery path
	m.cbs = append(m.cbs, cb{fn: func() { _ = m.ep.Send(to, pkt, size) }})
}

// Receive ingests a packet from the endpoint. NewMember wires the
// endpoint's handler to call this with the delivered payload; tests may
// also call it directly to hand-craft traffic.
func (m *Member) Receive(from string, payload any) {
	pkt, ok := payload.(*packet)
	if !ok {
		return // foreign traffic on a shared endpoint; not ours
	}
	m.mu.Lock()
	switch pkt.Kind {
	case kView:
		m.installView(*pkt.NewView)
	case kData:
		m.receiveMsgs(pkt)
	case kBatch:
		m.receiveMsgs(pkt.Msgs...)
	case kOrder:
		m.receiveOrder(pkt)
	case kToken:
		m.receiveToken(pkt)
	case kTokenReq:
		m.receiveTokenReq(pkt)
	case kNack:
		m.receiveNack(pkt)
	case kSync:
		m.receiveSync(pkt)
	case kRPCReq:
		m.receiveRPCRequest(pkt)
	case kRPCRep:
		m.receiveRPCReply(pkt)
	}
	m.runCallbacks()
}

func (m *Member) emit(pkt *packet, seq uint64) {
	m.delivered++
	m.cbs = append(m.cbs, cb{isDel: true, del: Delivery{
		From: pkt.From, Body: pkt.Body, Seq: seq, VC: pkt.VC, ViewID: pkt.ViewID,
	}})
}

// receiveMsgs files a run of data packets — one bare kData, or the contents
// of a kBatch — under the configured ordering. For the sequencer protocol
// the sequencer assigns the whole run one contiguous stretch of the global
// sequence; everyone else just files the messages and waits for the
// announcement. Token runs arrive pre-stamped by the holder.
//
//cscw:hotpath
func (m *Member) receiveMsgs(msgs ...*packet) {
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
			m.sequenceRun(msgs)
		}
		for _, p := range msgs {
			m.pendingMsg[p.MsgID] = p
		}
		m.drainTotal()
	case TotalToken:
		for _, p := range msgs {
			m.pendingMsg[p.MsgID] = p
			m.orderOf[p.GlobalSeq] = p.MsgID
		}
		m.drainTotal()
	}
}

// sequenceRun is the sequencer's half of the total order: it assigns the
// not-yet-sequenced messages of a received run the next contiguous stretch
// of the global sequence and announces the stretch with one kOrder packet —
// the single-MsgID form for a bare packet, MsgIDs from GlobalSeq upward for
// a batch. Ordering announcements ride reliable sim links; a loss means a
// partition, surfaced by stalled delivery which the experiments measure.
func (m *Member) sequenceRun(msgs []*packet) {
	start := m.seqNext
	for _, p := range msgs {
		if _, done := m.seqOf[p.MsgID]; !done { // else a duplicate replay
			m.seqOf[p.MsgID] = m.seqNext
			m.seqNext++
		}
	}
	if m.seqNext == start {
		return
	}
	order := m.newPacket()
	*order = packet{Kind: kOrder, From: m.id, ViewID: m.view.ID, GlobalSeq: start}
	if len(msgs) == 1 {
		order.MsgID = msgs[0].MsgID
	} else {
		order.MsgIDs = make([]msgID, m.seqNext-start)
		for _, p := range msgs {
			if seq := m.seqOf[p.MsgID]; seq >= start {
				order.MsgIDs[seq-start] = p.MsgID
			}
		}
	}
	m.queueSendToView(order)
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
		//lint:ignore hot-alloc one hold-back map per newly seen sender per view, not per message
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
	m.queueSend(sender, nack, 64)
}

// SyncPoint advertises this member's FIFO send high-water mark to the view,
// letting receivers detect and repair *tail* loss (a lost final message
// reveals no gap by itself). Schedule it periodically over lossy links —
// the failure detector's heartbeat interval is a natural carrier.
func (m *Member) SyncPoint() error {
	m.mu.Lock()
	if m.ordering != FIFO || !m.view.Contains(m.id) {
		m.mu.Unlock()
		return nil
	}
	pkt := &packet{Kind: kSync, From: m.id, ViewID: m.view.ID, SenderSeq: m.fifoSent}
	targets := m.viewTargets()
	m.runCallbacks() // releases m.mu: sends must not run under the lock
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
	defer m.mu.Unlock()
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
}

func (m *Member) receiveNack(pkt *packet) {
	for seq := pkt.NackFrom; seq <= pkt.NackTo; seq++ {
		p, ok := m.sentBuf[seq]
		if !ok {
			continue // aged out of the retention window
		}
		m.retransmissions++
		m.queueSend(pkt.From, p, p.Size+64)
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

func (m *Member) receiveOrder(pkt *packet) {
	if len(pkt.MsgIDs) > 0 {
		// Batched announcement: a contiguous run starting at GlobalSeq.
		for i, id := range pkt.MsgIDs {
			m.orderOf[pkt.GlobalSeq+uint64(i)] = id
		}
	} else {
		m.orderOf[pkt.GlobalSeq] = pkt.MsgID
	}
	m.drainTotal()
}

func (m *Member) drainTotal() {
	for {
		id, ok := m.orderOf[m.nextGlobal]
		if !ok {
			return
		}
		p, ok := m.pendingMsg[id]
		if !ok {
			return
		}
		delete(m.orderOf, m.nextGlobal)
		delete(m.pendingMsg, id)
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
		m.queueSendToView(m.wireRun(backlog[:n]))
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
	Mode     CallMode
	Deadline time.Duration // 0 means no deadline (requires every reply to arrive)
	Size     int
}

// Call invokes op with body on every member of the view (group invocation).
// done is called exactly once: with the collected replies when the mode's
// quota is met, or with the partial replies and ErrRPCDeadline if the
// deadline passes first.
func (m *Member) Call(op string, body any, opts CallOpts, done func([]Reply, error)) error {
	m.mu.Lock()
	if !m.view.Contains(m.id) {
		m.mu.Unlock()
		return ErrNotMember
	}
	if len(m.view.Members) == 0 {
		m.mu.Unlock()
		return ErrEmptyView
	}
	if opts.Mode == 0 {
		opts.Mode = WaitAll
	}
	m.callCounter++
	id := m.callCounter
	need := len(m.view.Members)
	switch opts.Mode {
	case WaitQuorum:
		need = len(m.view.Members)/2 + 1
	case WaitFirst:
		need = 1
	}
	pc := &pendingCall{mode: opts.Mode, need: need, callback: done}
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
				m.runCallbacks()
				return
			}
			c.done = true
			delete(m.calls, id)
			m.cbs = append(m.cbs, cb{fn: func() { c.callback(c.replies, ErrRPCDeadline) }})
			m.runCallbacks()
		})
	}
	req := &packet{Kind: kRPCReq, From: m.id, ViewID: m.view.ID, CallID: id, Op: op, Body: body, Size: opts.Size}
	targets := m.viewTargets()
	m.runCallbacks() // releases m.mu: the fan-out below must not run under it
	return m.sendToAll(targets, req)
}

func (m *Member) receiveRPCRequest(pkt *packet) {
	h, ok := m.handlers[pkt.Op]
	// Run the handler outside the lock: handlers may multicast or call
	// back into the member.
	m.cbs = append(m.cbs, cb{fn: func() {
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
	}})
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
		m.cbs = append(m.cbs, cb{fn: func() { pc.callback(pc.replies, nil) }})
	}
}
