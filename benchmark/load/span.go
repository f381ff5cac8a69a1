package load

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Key names the unit of work a span belongs to: the op's (site, seq), which
// crdt.Op, ot.Committed and the group's message ids already carry, plus which
// leg of its journey the frame is on.
type Key struct {
	Site string `json:"site,omitempty"`
	Seq  uint64 `json:"seq,omitempty"`
	Leg  uint8  `json:"leg,omitempty"`
}

// Legs of an op's journey. An op leaves its author as legOp; what the hub
// (session host or group sequencer) sends on is legOp again for a relayed
// CRDT item and legOrdered for an OT commit or a sequencer's order
// announcement. legJoin marks a roamer's join and its acknowledgement.
const (
	legOp uint8 = iota
	legOrdered
	legJoin
)

func (k Key) zero() bool { return k.Site == "" }

// op strips the leg, so both legs of one op group together.
func (k Key) op() Key { return Key{Site: k.Site, Seq: k.Seq} }

// Span is one timed interval at a layer boundary. Parent is the index of the
// innermost span of the same node and op that contains it, -1 for a root.
type Span struct {
	Node   string `json:"node"`
	Name   string `json:"name"`
	Peer   string `json:"peer,omitempty"` // send: destination; recv: sender
	Key    Key    `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Span names, one per seam the harness can reach from outside.
const (
	spanTransportSend = "transport.send" // transport.Endpoint.Send
	spanTransportRecv = "transport.recv" // raw handler entry → exit; self time is the fabric adapter and inbox
	spanEncode        = "fabric.encode"  // PayloadCodec.Encode
	spanDecode        = "fabric.decode"  // PayloadCodec.Decode
	spanFabricSend    = "fabric.send"    // fabric.Endpoint.Send as the layer above calls it
	spanReceive       = "receive"        // the layer above fabric handling one delivery (session or group)
	spanIssue         = "loadgen.issue"  // the harness issuing one op: lock wait and bookkeeping are its self time
	spanLocalEdit     = "engine.local_edit"
	spanApply         = "engine.apply"
	spanItemEncode    = "engine.item_encode"
	spanItemDecode    = "engine.item_decode"
	spanIntegrate     = "engine.host_integrate"
	spanMulticast     = "group.multicast"
	spanDeliver       = "group.deliver"
)

// tracer keeps spans in memory until the rep ends. A nil *tracer records
// nothing, so untraced runs share the call sites at the cost of a nil check.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span

	// bodies maps an item body the harness generated to its op; frames maps
	// the first byte of an encoded frame to the op its payload carried, so
	// the byte-level shims can name the op without decoding anything.
	bodies sync.Map // string → Key
	frames sync.Map // *byte → Key
	acks   sync.Map // *session.MsgJoinAck → Key
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has begun.
type open struct {
	t    *tracer
	span Span
}

func (t *tracer) begin(node, name, peer string, key Key) open {
	if t == nil {
		return open{}
	}
	return open{t: t, span: Span{Node: node, Name: name, Peer: peer, Key: key, Start: int64(time.Since(t.epoch)), Parent: -1}}
}

// end records the span. Spans that carry no op (hello, presence, leave) are
// dropped: nothing attributes them and they sit on no op's path.
func (o open) end() {
	if o.t == nil || o.span.Key.zero() {
		return
	}
	o.span.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
}

// endAs ends a span whose op was only learned while it ran (a received frame
// is anonymous until it has been decoded).
func (o open) endAs(key Key) {
	o.span.Key = key
	o.end()
}

// finish freezes the trace: spans sorted by start, parents resolved.
func (t *tracer) finish() []Span {
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()
	resolveParents(spans)
	return spans
}

// resolveParents sorts spans by start (longer first on ties) and sets each
// span's Parent to the innermost earlier span of the same node and op that is
// still running when it starts. One op is handled by one thread of control at
// a node, so containment is parenthood; spans without an op stay roots.
func resolveParents(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	type group struct {
		node string
		op   Key
	}
	stacks := make(map[group][]int)
	for i := range spans {
		spans[i].Parent = -1
		if spans[i].Key.zero() {
			continue
		}
		g := group{spans[i].Node, spans[i].Key.op()}
		st := stacks[g]
		for len(st) > 0 && spans[st[len(st)-1]].End <= spans[i].Start {
			st = st[:len(st)-1]
		}
		if len(st) > 0 {
			spans[i].Parent = st[len(st)-1]
		}
		stacks[g] = append(st, i)
	}
}

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []Span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		self[i] = (s.End - s.Start) - covered(ivs, s.Start, s.End)
	}
	return self
}

// covered is the total length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv[0], at), min(iv[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// writeTrace writes the spans as one JSON document: {"workload", "spans"}.
func writeTrace(path, workload string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{workload, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
