package group

import "time"

// The send buffer: sender-side batching and sequencer-side pipelining.
//
// Every Multicast takes one path: the stamped data packet is appended to
// the member's accumulation buffer, and the buffer is flushed as one run
// when it reaches its limit, when the accumulation window elapses, or when
// the application calls Flush. The limit is 1 by default, so each message
// flushes itself; BatchConfig raises it. A run of one leaves as the bare
// kData packet — an unbatched member is simply one whose every run has
// length one — and a longer run travels as one kBatch packet. Receivers
// unpack either form into the same per-message delivery code, so members
// with different limits interoperate within one view.
//
// The pipelining half lives on the ordering side. Under the sequencer
// protocol a member's run goes to the sequencer alone, which assigns it one
// contiguous stretch of the global sequence and forwards it in a single
// body-carrying kOrder to every other member (the message flattened into
// the order for a run of one, the run as Msgs from the starting GlobalSeq
// otherwise), and tells the run's origin its stretch in a single body-less
// kOrder (one MsgID, or MsgIDs). The sequencer's own run is stamped at its
// flush and leaves as the body-carrying kOrder alone. A token holder stamps
// a contiguous stretch onto a run before it is sent. At high fan-in this
// collapses the per-message sequencer round trip — the paper's §5
// scalability bottleneck — into one exchange per window.

// BatchConfig configures sender-side batching. The zero value sends every
// Multicast as its own wire packet.
type BatchConfig struct {
	// Window is how long the first buffered message of a partial batch may
	// wait for companions before the batch is flushed. A non-zero window
	// requires a Timer in the member config.
	Window time.Duration
	// MaxMsgs turns batching on when above one: the batch is flushed once
	// this many messages accumulate.
	MaxMsgs int
}

// limit is the longest run one wire packet may carry under ordering o: 1
// unless batching is configured and the ordering has a per-message cost to
// amortise. Unordered and Causal multicasts gain nothing from coalescing
// (there is no ordering round trip), so they always run at 1.
func (b BatchConfig) limit(o Ordering) int {
	if o == FIFO || o == TotalSequencer || o == TotalToken {
		return max(b.MaxMsgs, 1)
	}
	return 1
}

// batchTimerFire is the accumulation-window callback.
func (m *Member) batchTimerFire() {
	m.out.Do(func() {
		m.batchArmed = false
		m.queueFlush()
	})
}

// Flush forces any accumulated batch onto the wire now. A no-op for
// unbatched members and empty buffers.
func (m *Member) Flush() {
	m.out.Do(m.queueFlush)
}

// queueFlush flushes the accumulation buffer as a fire-and-forget send
// on the outbox. Called with m.mu held. The flush is detached from the
// Multicast calls that filled the buffer, so a failed send surfaces as loss
// (repaired by NACK for FIFO, visible as stalled delivery for the total
// orders), not as an error.
func (m *Member) queueFlush() {
	if pkt, targets := m.flush(); pkt != nil {
		m.out.QueueAll(targets, pkt, pkt.Size+64)
	}
}

// flush empties the accumulation buffer and returns the packet to send for
// it and the members to send it to, or a nil packet when the buffer was
// empty. Called with m.mu held.
//
//cscw:hotpath
func (m *Member) flush() (*packet, []string) {
	if len(m.batchBuf) == 0 {
		return nil, nil
	}
	run := m.batchBuf
	m.batchBuf = m.batchBuf[:0] // wireRun keeps no reference to run
	return m.wireRun(run)
}

// wireRun turns a run of stamped data packets into what goes on the wire
// for it now, and names its targets. A token-protocol member without the
// token parks the run in the outbox and the packet returned is the token
// request — the run goes out, contiguously stamped, when the token arrives
// (drainOutbox). A holder stamps the run's stretch of the global sequence
// here. Under the sequencer protocol a member's run goes to the sequencer
// alone, and the sequencer's own run is ordered here and goes to everyone
// else as its body-carrying announcement (order). Otherwise the run goes to
// the whole view: a run of one as the bare kData packet, a longer one
// wrapped in a kBatch. Called with m.mu held; run is not retained.
//
//cscw:hotpath
func (m *Member) wireRun(run []*packet) (*packet, []string) {
	targets := m.view.Members
	switch m.ordering {
	case TotalToken:
		if !m.hasToken {
			m.outbox = append(m.outbox, run...)
			req := m.newPacket()
			*req = packet{Kind: kTokenReq, From: m.id, ViewID: m.view.ID}
			return req, targets
		}
		for _, p := range run {
			p.GlobalSeq = m.seqNext
			m.seqNext++
		}
	case TotalSequencer:
		// The sequencer is Members[0] (View.Sequencer).
		if m.view.Sequencer() == m.id {
			fwd := m.order(run)
			m.drainTotal()
			return fwd, targets[1:]
		}
		targets = targets[:1]
	}
	if len(run) == 1 {
		return run[0], targets
	}
	msgs := make([]*packet, len(run))
	total := 0
	for i, p := range run {
		msgs[i] = p
		total += p.Size
	}
	pkt := m.newPacket()
	*pkt = packet{Kind: kBatch, From: m.id, ViewID: m.view.ID, Msgs: msgs, Size: total}
	return pkt, targets
}
