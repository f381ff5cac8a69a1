package load

import (
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/crdt"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
	//lint:ignore layer-transport the harness stands where a command main stands: it builds the TCP edge exactly as cmd/cscwctl and cmd/sessiond do, and times it from outside; this file is the only place it touches the transport
	"repro/internal/transport"
)

// addressBook maps peer ids to dialable addresses, as the commands use it.
type addressBook = transport.AddressBook

func newAddressBook() *addressBook { return transport.NewAddressBook() }

// wireCounts totals the frames of one rep, each counted once.
type wireCounts struct {
	frames, bytes, dials, sendErrors atomic.Int64
}

// frameOverhead is what the transport adds to a payload: uint32 length plus
// uint16 sender-id length; the sender id itself follows.
const frameOverhead = 6

// meteredEndpoint wraps a transport.Endpoint. It always counts frames and
// bytes (wire_bytes_per_op is an untraced metric); with a tracer it also
// records a span per Send and per raw-handler call.
type meteredEndpoint struct {
	transport.Endpoint
	addr   string // the bound listen address
	counts *wireCounts
	// countFrom names the one peer whose inbound frames are counted here
	// because its own endpoint is out of reach (the sessiond child).
	countFrom string
	tr        *tracer

	mu     sync.Mutex
	dialed map[string]bool
}

// listenTCP opens the TCP edge the commands open — transport.ListenTCP on an
// ephemeral loopback port, registered in book — behind the meter.
func listenTCP(id string, book *addressBook, counts *wireCounts, countFrom string, tr *tracer) (*meteredEndpoint, error) {
	tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
	if err != nil {
		return nil, err
	}
	return &meteredEndpoint{Endpoint: tep, addr: tep.Addr(), counts: counts, countFrom: countFrom, tr: tr, dialed: make(map[string]bool)}, nil
}

func (e *meteredEndpoint) Send(to string, data []byte) error {
	e.mu.Lock()
	if !e.dialed[to] {
		e.dialed[to] = true
		e.counts.dials.Add(1)
	}
	e.mu.Unlock()
	sp := e.tr.begin(e.ID(), spanTransportSend, to, e.tr.frameKey(data))
	err := e.Endpoint.Send(to, data)
	sp.end()
	if err != nil {
		e.counts.sendErrors.Add(1)
		return err
	}
	e.counts.frames.Add(1)
	e.counts.bytes.Add(int64(len(data) + frameOverhead + len(e.ID())))
	return nil
}

func (e *meteredEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(from string, data []byte) {
		if from == e.countFrom {
			e.counts.frames.Add(1)
			e.counts.bytes.Add(int64(len(data) + frameOverhead + len(from)))
		}
		sp := e.tr.begin(e.ID(), spanTransportRecv, from, Key{})
		h(from, data)
		sp.endAs(e.tr.frameKey(data))
	})
}

// frameKey returns (and forgets) the op the codec shim filed for this frame.
func (t *tracer) frameKey(data []byte) Key {
	if t == nil || len(data) == 0 {
		return Key{}
	}
	if k, ok := t.frames.LoadAndDelete(&data[0]); ok {
		return k.(Key)
	}
	return Key{}
}

// tracedCodec times Encode and Decode and files each frame's op under the
// frame's first byte: FromTransport hands the very slice Encode returned to
// transport Send, and the very slice the raw handler received to Decode.
type tracedCodec struct {
	fabric.PayloadCodec
	node string
	tr   *tracer
}

func (c *tracedCodec) Encode(payload any) ([]byte, error) {
	key := c.tr.payloadKey(payload, "")
	sp := c.tr.begin(c.node, spanEncode, "", key)
	data, err := c.PayloadCodec.Encode(payload)
	sp.end()
	if err == nil && len(data) > 0 && !key.zero() {
		c.tr.frames.Store(&data[0], key)
	}
	return data, err
}

func (c *tracedCodec) Decode(data []byte) (any, error) {
	sp := c.tr.begin(c.node, spanDecode, "", Key{})
	payload, err := c.PayloadCodec.Decode(data)
	key := c.tr.payloadKey(payload, c.node)
	sp.endAs(key)
	if len(data) > 0 && !key.zero() {
		c.tr.frames.Store(&data[0], key)
	}
	return payload, err
}

// middleware sits between the fabric adapter and the layer above it (session
// or group), timing that layer's handler and the adapter's Send.
func (t *tracer) middleware(node string) fabric.Middleware {
	return func(inner fabric.Endpoint) fabric.Endpoint {
		return &tracedFabric{Endpoint: inner, node: node, tr: t}
	}
}

type tracedFabric struct {
	fabric.Endpoint
	node string
	tr   *tracer
}

func (e *tracedFabric) Unwrap() fabric.Endpoint { return e.Endpoint }

func (e *tracedFabric) Send(to string, payload any, size int) error {
	sp := e.tr.begin(e.node, spanFabricSend, to, e.tr.payloadKey(payload, to))
	err := e.Endpoint.Send(to, payload, size)
	sp.end()
	return err
}

func (e *tracedFabric) SetHandler(h fabric.Handler) {
	if h == nil {
		e.Endpoint.SetHandler(nil)
		return
	}
	e.Endpoint.SetHandler(func(from string, payload any, size int) {
		sp := e.tr.begin(e.node, spanReceive, from, e.tr.payloadKey(payload, e.node))
		h(from, payload, size)
		sp.end()
	})
}

// payloadKey names the op a fabric-level payload carries. Session items are
// looked up by the body the harness itself generated; joins are keyed by the
// joiner (joinee is whoever a MsgJoinAck travels to); a group packet's
// message id is read through its exported fields, the type itself being
// unexported. Anything else (hello, presence) has no op.
func (t *tracer) payloadKey(payload any, joinee string) Key {
	switch m := payload.(type) {
	case *session.MsgPost:
		return t.bodyKey(m.Body)
	case *session.MsgItems:
		if len(m.Items) == 1 {
			return t.bodyKey(m.Items[0].Body)
		}
	case *session.MsgJoin:
		return Key{Site: m.From, Leg: legJoin}
	case *session.MsgJoinAck:
		// Only the fabric-level Send knows whom an ack is for; it files the
		// ack so the codec below it, which sees the payload alone, can ask.
		if joinee == "" {
			if k, ok := t.acks.LoadAndDelete(m); ok {
				return k.(Key)
			}
			return Key{}
		}
		key := Key{Site: joinee, Leg: legJoin}
		t.acks.Store(m, key)
		return key
	case nil, *fabric.Hello, *session.MsgPresence, *session.MsgLeave:
	default:
		return groupPacketKey(payload)
	}
	return Key{}
}

func (t *tracer) bodyKey(body string) Key {
	if t == nil {
		return Key{}
	}
	if k, ok := t.bodies.Load(body); ok {
		return k.(Key)
	}
	return Key{}
}

// engineKey names the op an engine payload carries.
func engineKey(payload any) Key {
	switch m := payload.(type) {
	case *crdt.MsgOp:
		return Key{Site: m.Op.Site, Seq: m.Op.Seq}
	case *engine.MsgSubmit:
		return Key{Site: m.Sub.Site, Seq: m.Sub.Seq}
	case *engine.MsgCommit:
		return Key{Site: m.C.Site, Seq: m.C.Seq, Leg: legOrdered}
	}
	return Key{}
}

// groupPacketKey reads Kind and MsgID{Origin, N} from a *group.packet. Data
// packets (kind 1) are the op leg, order announcements (kind 2) the ordered
// leg; the constants mirror group's unexported kData and kOrder.
func groupPacketKey(payload any) Key {
	v := reflect.ValueOf(payload)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return Key{}
	}
	v = v.Elem()
	kind, id := v.FieldByName("Kind"), v.FieldByName("MsgID")
	if !kind.IsValid() || !id.IsValid() || id.Kind() != reflect.Struct {
		return Key{}
	}
	origin, n := id.FieldByName("Origin"), id.FieldByName("N")
	if !origin.IsValid() || !n.IsValid() || origin.String() == "" {
		return Key{}
	}
	key := Key{Site: origin.String(), Seq: n.Uint()}
	if kind.Int() == 2 {
		key.Leg = legOrdered
	}
	return key
}
