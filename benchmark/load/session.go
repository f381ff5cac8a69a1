package load

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crdt"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/ot"
	"repro/internal/session"
)

// applyDeadline is how long an (op, peer) pair may take before it counts as
// failed, and how long set-up steps may take before the rep is abandoned.
const applyDeadline = 5 * time.Second

// warmShare of every rep's ops are issued but not timed: they pay for the
// dial-backs, the first heap growth and the first scheduler wake-ups.
const warmShare = 0.10

// world is what the participants of one rep share.
type world struct {
	epoch    time.Time
	tr       *tracer // nil on untraced reps
	engine   string
	engCodec *fabric.BinaryCodec
	counts   wireCounts
	hostAddr string
	// inProcess says the host is the replica, whose endpoint meters its own
	// sends; the child's are metered where they arrive.
	inProcess bool

	parts  []*participant
	bySite map[string]*participant

	// presence counts MsgPresence notices; settled closes when every
	// participant has heard of every later joiner.
	presence     atomic.Int64
	wantPresence int64
	settled      chan struct{}
	settleOnce   sync.Once

	// pairs counts (op, peer) applies; drained closes at wantPairs.
	pairs     atomic.Int64
	wantPairs int64
	drained   chan struct{}
	drainOnce sync.Once
	lastApply atomic.Int64 // ns since epoch of the latest apply at a timed peer

	checks
}

func (w *world) now() int64 { return int64(time.Since(w.epoch)) }

// checks collects a rep's broken correctness checks. The rep carries on so
// that every broken check is reported (the first 20 of them); any one makes
// the run exit non-zero.
type checks struct {
	mu       sync.Mutex
	failures []string
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// participant is one cscwctl: a TCP endpoint, a session client bound to one
// document, and an engine replica of that document.
type participant struct {
	w    *world
	name string
	doc  string
	// timed peers contribute latency samples; roamers only have to converge.
	timed bool

	ep  fabric.Endpoint
	cli *session.Client

	// t0 holds, per own op seq, the instant its latency counts from (ns since
	// the epoch, +1 so 0 means unset) or -1 for an untimed warm-up op. The
	// issuer writes it before posting; peers read it when they apply.
	t0 []atomic.Int64
	// ack wakes this participant's closed-loop issuer when the last of the
	// ackNeed timed peers has applied its one outstanding op; nil on an open
	// loop. ackGot counts that op's applies so far.
	ack     chan struct{}
	ackNeed int32
	ackGot  atomic.Int32

	joinStart atomic.Int64 // ns since epoch of the pending Join call; 0 when none
	joined    chan struct{}

	// mu guards the replica and everything below, as cscwctl's engMu does.
	mu         sync.Mutex
	eng        engine.Doc
	length     lengthTracker
	issued     uint64
	posted     int
	received   int
	lastSeq    uint64
	pendingMax int
	latNs      []int64        // peer-apply latencies of timed ops applied here
	record     bool           // keep every received item (the parity check's reader)
	items      []session.Item // what record kept
	catchupNs  []int64        // Join call → JoinAck handler return, timed joins only
	backlogs   []float64      // backlog items carried by each timed join's ack
	timeJoin   bool           // whether the pending join is a sampled one
}

// newParticipant wires one participant the way cmd/cscwctl does and says
// hello to the host; it does not join yet.
func (w *world) newParticipant(name, doc string, nOps int, timed bool) (*participant, error) {
	eng, err := engine.New(w.engine, doc, name, session.HostAuthor)
	if err != nil {
		return nil, err
	}
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	var codec fabric.PayloadCodec = fabric.NewBinaryCodec(reg)
	countFrom := hostID // the child's sends are only visible where they arrive
	if w.inProcess {
		countFrom = "" // the replica's own endpoint counts them
	}
	if w.tr != nil {
		codec = &tracedCodec{PayloadCodec: codec, node: name, tr: w.tr}
	}
	book := newAddressBook()
	book.Set(hostID, w.hostAddr)
	tep, err := listenTCP(name, book, &w.counts, countFrom, w.tr)
	if err != nil {
		return nil, err
	}
	var ep fabric.Endpoint = fabric.FromTransport(tep, codec)
	if w.tr != nil {
		ep = fabric.Wrap(ep, w.tr.middleware(name))
	}
	p := &participant{
		w: w, name: name, doc: doc, timed: timed,
		ep: ep, eng: eng,
		t0:     make([]atomic.Int64, nOps+1),
		joined: make(chan struct{}, 1),
	}
	p.cli = session.NewClientForDoc(ep, hostID, doc)
	p.cli.OnItem = p.onItem
	p.cli.OnPresence = func(string, session.Presence) {
		if w.presence.Add(1) == w.wantPresence {
			w.settleOnce.Do(func() { close(w.settled) })
		}
	}
	// The client runs OnJoined before the backlog's OnItem calls, so a join is
	// only over when the handler that processed its ack returns.
	ep.SetHandler(func(from string, payload any, size int) {
		p.cli.Receive(from, payload)
		if ack, ok := payload.(*session.MsgJoinAck); ok {
			p.joinAcked(len(ack.Backlog))
		}
	})
	if err := ep.Send(hostID, &fabric.Hello{Addr: tep.addr}, 0); err != nil {
		_ = ep.Close() // the hello error is the one worth reporting
		return nil, fmt.Errorf("reach sessiond at %s: %w", w.hostAddr, err)
	}
	w.parts = append(w.parts, p)
	w.bySite[name] = p
	return p, nil
}

// join sends MsgJoin (since = the last item seen) and returns at once; timed
// says whether the catch-up is a sample.
func (p *participant) join(timed bool) error {
	p.mu.Lock()
	p.timeJoin = timed
	p.mu.Unlock()
	p.joinStart.Store(p.w.now())
	return p.cli.Join(0)
}

func (p *participant) joinAcked(backlog int) {
	done := p.w.now()
	start := p.joinStart.Swap(0)
	p.mu.Lock()
	if start != 0 && p.timeJoin {
		p.catchupNs = append(p.catchupNs, done-start)
		p.backlogs = append(p.backlogs, float64(backlog))
	}
	p.mu.Unlock()
	select {
	case p.joined <- struct{}{}:
	default:
	}
}

// awaitJoin blocks until the pending join's ack has been processed.
func (p *participant) awaitJoin() error {
	select {
	case <-p.joined:
		return nil
	case <-time.After(applyDeadline):
		return fmt.Errorf("%s: join not acknowledged within %v", p.name, applyDeadline)
	}
}

// issue performs one scripted edit on the local replica and posts what it
// produced. t0 is the op's latency origin (ns since epoch), or -1 to leave it
// untimed. The replica lock is held across Post, as in cscwctl.
func (p *participant) issue(d Draw, t0 int64) error {
	whole := p.w.tr.begin(p.name, spanIssue, "", Key{})
	p.mu.Lock()
	p.issued++
	key := Key{Site: p.name, Seq: p.issued}
	err := p.issueLocked(d, t0, key)
	whole.endAs(key)
	p.mu.Unlock()
	return err
}

func (p *participant) issueLocked(d Draw, t0 int64, key Key) error {
	if t0 >= 0 {
		t0++
	}
	p.t0[key.Seq].Store(t0)
	insert, pos := p.length.resolve(d)

	sp := p.w.tr.begin(p.name, spanLocalEdit, "", key)
	var msgs []engine.Msg
	var err error
	if insert {
		msgs, err = p.eng.Insert(pos, d.Ch)
	} else {
		msgs, err = p.eng.Delete(pos)
	}
	sp.end()
	if err != nil {
		return fmt.Errorf("%s op %d: %w", p.name, key.Seq, err)
	}
	if n := p.eng.Pending(); n > p.pendingMax {
		p.pendingMax = n
	}
	return p.post(msgs)
}

// post publishes engine messages into the session log; callers hold p.mu.
func (p *participant) post(msgs []engine.Msg) error {
	for _, m := range msgs {
		key := engineKey(m.Body)
		sp := p.w.tr.begin(p.name, spanItemEncode, "", key)
		body, err := engine.EncodeItemBody(p.w.engCodec, m)
		sp.end()
		if err != nil {
			return err
		}
		p.w.tr.fileBody(body, key)
		if err := p.cli.Post(engine.ItemKind, body, 0); err != nil {
			return fmt.Errorf("%s post: %w", p.name, err)
		}
		p.posted++
	}
	return nil
}

// onItem is cscwctl's item callback: skip own and foreign-addressed items,
// decode, apply, post whatever the engine releases. It also keeps the books
// the correctness checks need.
func (p *participant) onItem(it session.Item) {
	w := p.w
	p.mu.Lock()
	if it.Seq <= p.lastSeq {
		w.fail("%s: item seq %d after %d: not strictly increasing", p.name, it.Seq, p.lastSeq)
	}
	p.lastSeq = it.Seq
	p.received++
	if p.record {
		p.items = append(p.items, it)
	}
	p.mu.Unlock()
	if it.Kind != engine.ItemKind || it.From == p.name {
		return
	}
	key := w.tr.bodyKey(it.Body)
	sp := w.tr.begin(p.name, spanItemDecode, it.From, key)
	to, payload, err := engine.DecodeItemBody(w.engCodec, it.Body)
	sp.end()
	if err != nil {
		w.fail("%s: bad eng/op from %s: %v", p.name, it.From, err)
		return
	}
	if to != "" && to != p.name {
		return
	}
	site, seq, insert := opOf(payload)

	p.mu.Lock()
	sp = w.tr.begin(p.name, spanApply, it.From, key)
	out, err := p.eng.Apply(it.From, payload)
	sp.end()
	at := w.now()
	if err != nil {
		p.mu.Unlock()
		w.fail("%s: applying %T from %s: %v", p.name, payload, it.From, err)
		return
	}
	src := w.bySite[site]
	mine := src == p // an OT commit of our own op: an acknowledgement, not a peer apply
	if !mine {
		p.length.applied(insert, p.eng.Text)
		if src != nil && seq < uint64(len(src.t0)) {
			if t0 := src.t0[seq].Load(); t0 > 0 && p.timed {
				p.latNs = append(p.latNs, at-(t0-1))
			}
		}
	}
	if err := p.post(out); err != nil {
		w.fail("%v", err)
	}
	p.mu.Unlock()
	if mine || src == nil {
		return
	}
	if p.timed {
		storeMax(&w.lastApply, at)
	}
	if w.pairs.Add(1) == w.wantPairs {
		w.drainOnce.Do(func() { close(w.drained) })
	}
	if src.ack != nil && p.timed && src.ackGot.Add(1) == src.ackNeed {
		src.ackGot.Store(0)
		src.ack <- struct{}{} // capacity 1, one op outstanding: never blocks
	}
}

// opOf reads the (site, seq) and kind of the edit an engine payload applies.
func opOf(payload any) (site string, seq uint64, insert bool) {
	switch m := payload.(type) {
	case *crdt.MsgOp:
		return m.Op.Site, m.Op.Seq, m.Op.Kind == crdt.OpSeqInsert
	case *engine.MsgCommit:
		return m.C.Site, m.C.Seq, m.C.Op.Kind == ot.Insert
	}
	return "", 0, false
}

// close releases the participant's endpoint (listener, connections, readers).
func (p *participant) close() {
	_ = p.ep.Close() // teardown: nothing left to do with a close error
}
