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
// The pipelining half lives on the ordering side: a sequencer assigns a
// received run one contiguous stretch of the global sequence and announces
// it with a single kOrder packet (one MsgID for a run of one, MsgIDs plus
// the starting GlobalSeq otherwise), and a token holder stamps a contiguous
// stretch onto a run before it is sent. At high fan-in this collapses the
// per-message sequencer round trip — the paper's §5 scalability bottleneck
// — into one exchange per window.

// BatchConfig configures sender-side batching. The zero value sends every
// Multicast as its own wire packet.
type BatchConfig struct {
	// Window is how long the first buffered message may wait for
	// companions before the batch is flushed. A non-zero window requires
	// a Timer in the member config.
	Window time.Duration
	// MaxMsgs flushes the batch early once this many messages accumulate.
	// 0 with a non-zero Window means DefaultBatchMsgs.
	MaxMsgs int
}

// DefaultBatchMsgs bounds a batch when only a window is configured.
const DefaultBatchMsgs = 64

// limit is the longest run one wire packet may carry under ordering o: 1
// unless batching is configured and the ordering has a per-message cost to
// amortise. Unordered and Causal multicasts gain nothing from coalescing
// (there is no ordering round trip), so they always run at 1.
func (b BatchConfig) limit(o Ordering) int {
	switch o {
	case FIFO, TotalSequencer, TotalToken:
		if b.MaxMsgs > 1 {
			return b.MaxMsgs
		}
		if b.Window > 0 {
			return DefaultBatchMsgs
		}
	}
	return 1
}

// batchTimerFire is the accumulation-window callback.
func (m *Member) batchTimerFire() {
	m.mu.Lock()
	m.batchArmed = false
	m.queueFlush()
	m.out.Drain(&m.mu)
}

// Flush forces any accumulated batch onto the wire now. A no-op for
// unbatched members and empty buffers.
func (m *Member) Flush() {
	m.mu.Lock()
	m.queueFlush()
	m.out.Drain(&m.mu)
}

// queueFlush flushes the accumulation buffer as a fire-and-forget fan-out
// on the outbox. Called with m.mu held. The flush is detached from
// the Multicast calls that filled the buffer, so a failed send surfaces as
// loss (repaired by NACK for FIFO, visible as stalled delivery for the
// total orders), not as an error.
func (m *Member) queueFlush() {
	if pkt := m.flush(); pkt != nil {
		m.queueSendToView(pkt)
	}
}

// flush empties the accumulation buffer and returns the packet to fan out
// to the view for it, or nil when the buffer was empty. Called with m.mu
// held.
//
//cscw:hotpath
func (m *Member) flush() *packet {
	if len(m.batchBuf) == 0 {
		return nil
	}
	run := m.batchBuf
	m.batchBuf = m.batchBuf[:0] // wireRun keeps no reference to run
	return m.wireRun(run)
}

// wireRun turns a run of stamped data packets into what goes on the wire
// for it now. A token-protocol member without the token parks the run in
// the outbox and the packet returned is the token request — the run goes
// out, contiguously stamped, when the token arrives (drainOutbox). A
// holder stamps the run's stretch of the global sequence here. A run of
// one is returned as the bare kData packet, a longer one wrapped in a
// kBatch. Called with m.mu held; run is not retained.
//
//cscw:hotpath
func (m *Member) wireRun(run []*packet) *packet {
	if m.ordering == TotalToken {
		if !m.hasToken {
			m.outbox = append(m.outbox, run...)
			req := m.newPacket()
			*req = packet{Kind: kTokenReq, From: m.id, ViewID: m.view.ID}
			return req
		}
		for _, p := range run {
			p.GlobalSeq = m.seqNext
			m.seqNext++
		}
	}
	if len(run) == 1 {
		return run[0]
	}
	msgs := make([]*packet, len(run))
	total := 0
	for i, p := range run {
		msgs[i] = p
		total += p.Size
	}
	pkt := m.newPacket()
	*pkt = packet{Kind: kBatch, From: m.id, ViewID: m.view.ID, Msgs: msgs, Size: total}
	return pkt
}
