package fabric

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

type ping struct {
	N    int
	Note string
}

func (p ping) AppendBinary(dst []byte) ([]byte, error) {
	dst = AppendUvarint(dst, uint64(p.N))
	return AppendString(dst, p.Note), nil
}

func (p *ping) ParseBinary(r Reader) error {
	p.N = int(r.Uvarint())
	p.Note = r.String()
	return r.Done("ping")
}

// --- codec --------------------------------------------------------------

// TestDecodeBadBody: a well-formed frame whose body its parser rejects is a
// decode error, not a nil payload.
func TestDecodeBadBody(t *testing.T) {
	c := newTestCodec()
	frame, err := c.Encode(&ping{N: 7, Note: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the body's last byte and shrink the length prefix to match, so
	// the frame is sound and the ping body is one byte short.
	frame = frame[:len(frame)-1]
	frame[4+len("test/ping")+3]-- // the low byte of the big-endian length
	if got, err := c.Decode(frame); !errors.Is(err, ErrTruncatedFrame) || !strings.Contains(err.Error(), "test/ping body") {
		t.Fatalf("Decode = %v, %v; want the ping body's truncation", got, err)
	}
}

// TestRegisterChecks: a type without both binary halves, or a tag the
// frame's one length byte cannot carry, fails at Register, naming the type.
func TestRegisterChecks(t *testing.T) {
	type jsonOnly struct{ X int }
	for _, c := range []struct {
		tag   string
		proto any
		want  string
	}{
		{"test/json", jsonOnly{}, "fabric.jsonOnly (tag test/json) implements no BinaryAppender"},
		{"test/half", appendOnly{}, "*fabric.appendOnly (tag test/half) implements no BinaryParser"},
		{strings.Repeat("t", 256), ping{}, "fabric.ping is longer than 255 bytes"},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, c.want) {
					t.Errorf("Register(%.12s, %T) panicked with %q, want %q", c.tag, c.proto, msg, c.want)
				}
			}()
			NewCodec().Register(c.tag, c.proto)
		}()
	}
	NewCodec().Register(strings.Repeat("t", 255), ping{}) // the longest tag fits
}

// TestRegisterRefusesPointerPrototype: a prototype is a struct value; a
// pointer's pointer has no parser, so Register panics naming it.
func TestRegisterRefusesPointerPrototype(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "**fabric.ping (tag test/ptr) implements no BinaryParser") {
			t.Errorf("Register(&ping{}) panicked with %q", msg)
		}
	}()
	NewCodec().Register("test/ptr", &ping{})
}

// TestEncodeRefusesOversizedBody: a body past MaxBinaryFrame fails at
// encode, before any peer would refuse it.
func TestEncodeRefusesOversizedBody(t *testing.T) {
	c := newTestCodec()
	if frame, err := c.Encode(&ping{Note: strings.Repeat("x", MaxBinaryFrame)}); !errors.Is(err, ErrOversizedFrame) {
		t.Fatalf("Encode of an oversized body = %d bytes, %v; want ErrOversizedFrame", len(frame), err)
	}
}

// TestDecodeRefusesUnknownBodyEncoding: a frame whose body-encoding byte is
// not the binary one is refused.
func TestDecodeRefusesUnknownBodyEncoding(t *testing.T) {
	c := newTestCodec()
	frame, err := c.Encode(&ping{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = 9
	if got, err := c.Decode(frame); err == nil || !strings.Contains(err.Error(), "unknown body encoding 9") {
		t.Fatalf("Decode = %v, %v; want unknown body encoding 9", got, err)
	}
}

type appendOnly struct{}

func (appendOnly) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

func TestCodecRoundTrip(t *testing.T) {
	c := NewCodec()
	c.Register("test/ping", ping{})
	data, err := c.Encode(&ping{N: 3, Note: "x"})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	p, ok := got.(*ping)
	if !ok {
		t.Fatalf("decode returned %T, want *ping", got)
	}
	if p.N != 3 || p.Note != "x" {
		t.Fatalf("round trip got %+v", p)
	}
	// Value (non-pointer) payloads encode under the same tag.
	if _, err := c.Encode(ping{N: 1}); err != nil {
		t.Fatalf("value encode: %v", err)
	}
}

func TestCodecUnknownTagSkipped(t *testing.T) {
	c := NewCodec()
	c.Register("test/ping", ping{})
	other := NewCodec()
	other.Register("someone/elses", ping{})
	data, err := other.Encode(ping{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatalf("unknown tag should not error: %v", err)
	}
	if got != nil {
		t.Fatalf("unknown tag should decode to nil, got %#v", got)
	}
}

func TestCodecUnregisteredEncodeFails(t *testing.T) {
	c := NewCodec()
	if _, err := c.Encode(struct{ X int }{1}); err == nil {
		t.Fatal("want error encoding unregistered type")
	}
}

func TestCodecGarbageDecodeFails(t *testing.T) {
	c := NewCodec()
	if _, err := c.Decode([]byte("}{")); err == nil {
		t.Fatal("want error decoding garbage")
	}
}

// --- sim adapter --------------------------------------------------------

func TestFromSimRoundTrip(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := FromSim(sim.MustAddNode("a"))
	b := FromSim(sim.MustAddNode("b"))
	var got []string
	b.SetHandler(func(from string, payload any, size int) {
		got = append(got, fmt.Sprintf("%s:%v:%d", from, payload, size))
	})
	if err := a.Send("b", "hi", 10); err != nil {
		t.Fatalf("send: %v", err)
	}
	sim.Run()
	if len(got) != 1 || got[0] != "a:hi:10" {
		t.Fatalf("delivery = %v", got)
	}
}

// TestFromSimCountsPreHandlerDrops: a delivery that lands before SetHandler
// is counted as the adapter's drop, not the simulator's (the simulator saw a
// handler, the adapter's own).
func TestFromSimCountsPreHandlerDrops(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := FromSim(sim.MustAddNode("a"))
	b := FromSim(sim.MustAddNode("b"))
	for i := 0; i < 3; i++ {
		if err := a.Send("b", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if d := b.Dropped(); d != 3 {
		t.Fatalf("dropped = %d, want 3", d)
	}
	if n := sim.DroppedNoHandler(); n != 0 {
		t.Fatalf("sim counted %d no-handler drops despite the adapter", n)
	}
}

// TestFromSimHoldsNothingBeforeHandler: installing a handler delivers none of
// what arrived before it; only later deliveries reach it.
func TestFromSimHoldsNothingBeforeHandler(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := FromSim(sim.MustAddNode("a"))
	b := FromSim(sim.MustAddNode("b"))
	for i := 0; i < 3; i++ {
		if err := a.Send("b", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	var got []any
	b.SetHandler(func(from string, payload any, size int) { got = append(got, payload) })
	if len(got) != 0 {
		t.Fatalf("SetHandler delivered %v held from before it", got)
	}
	if err := a.Send("b", 3, 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("delivered %v, want [3]", got)
	}
}

func TestFromSimClose(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := FromSim(sim.MustAddNode("a"))
	sim.MustAddNode("b")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "x", 1); err != ErrClosed {
		t.Fatalf("send after close = %v, want ErrClosed", err)
	}
}

func TestNetsimCountsNoHandlerDrops(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := sim.MustAddNode("a")
	sim.MustAddNode("b") // never given a handler, raw node
	if err := a.Send("b", "lost", 1); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if n := sim.DroppedNoHandler(); n != 1 {
		t.Fatalf("DroppedNoHandler = %d, want 1", n)
	}
}

// --- transport adapter --------------------------------------------------

func newTestCodec() *Codec {
	c := NewCodec()
	c.Register("test/ping", ping{})
	return c
}

// loopback opens one TCP endpoint per id on an ephemeral loopback port, all
// in one address book, each closed when the test ends.
func loopback(t *testing.T, ids ...string) []*transport.TCPEndpoint {
	t.Helper()
	book := transport.NewAddressBook()
	eps := make([]*transport.TCPEndpoint, len(ids))
	for i, id := range ids {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	return eps
}

func TestFromTransportRoundTrip(t *testing.T) {
	tcp := loopback(t, "a", "b")
	c := newTestCodec()
	a := FromTransport(tcp[0], c)
	b := FromTransport(tcp[1], c)
	defer a.Close()
	defer b.Close()

	got := make(chan ping, 1)
	b.SetHandler(func(from string, payload any, size int) {
		if p, ok := payload.(*ping); ok && from == "a" {
			got <- *p
		}
	})
	if err := a.Send("b", &ping{N: 9, Note: "over the wire"}, 0); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case p := <-got:
		if p.N != 9 || p.Note != "over the wire" {
			t.Fatalf("got %+v", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for delivery")
	}
}

// TestFromTransportCountsPreHandlerDrops: a frame decoded before SetHandler
// is a counted drop, not a held delivery; the next frame reaches the handler.
func TestFromTransportCountsPreHandlerDrops(t *testing.T) {
	tcp := loopback(t, "a", "b")
	c := newTestCodec()
	a := FromTransport(tcp[0], c)
	b := FromTransport(tcp[1], c)
	defer a.Close()
	defer b.Close()

	if err := a.Send("b", &ping{N: 1}, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.Dropped() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := b.Dropped(); d != 1 {
		t.Fatalf("dropped = %d before the handler, want 1", d)
	}
	got := make(chan ping, 2)
	b.SetHandler(func(from string, payload any, size int) {
		if p, ok := payload.(*ping); ok {
			got <- *p
		}
	})
	if err := a.Send("b", &ping{N: 2}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p.N != 2 {
			t.Fatalf("got %+v, want the frame sent after SetHandler", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame sent after SetHandler never arrived")
	}
}

// TestFromTransportPayloadSnapshotAtSend: the codec encodes the payload when
// Send is called, so mutating the object afterwards must not change what the
// receiver decodes (the fabric-level analogue of transport.Endpoint.Send's
// promise to keep nothing of the caller's buffer).
func TestFromTransportPayloadSnapshotAtSend(t *testing.T) {
	tcp := loopback(t, "a", "b")
	c := newTestCodec()
	a := FromTransport(tcp[0], c)
	b := FromTransport(tcp[1], c)
	defer a.Close()
	defer b.Close()

	got := make(chan ping, 1)
	b.SetHandler(func(from string, payload any, size int) {
		if p, ok := payload.(*ping); ok {
			got <- *p
		}
	})
	msg := &ping{N: 1, Note: "orig"}
	if err := a.Send("b", msg, 0); err != nil {
		t.Fatal(err)
	}
	msg.N = 99
	msg.Note = "mutated after send"
	select {
	case p := <-got:
		if p.N != 1 || p.Note != "orig" {
			t.Fatalf("receiver saw %+v; payload not snapshotted at send time", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for delivery")
	}
}

func TestFromTransportRejectsUnregisteredPayload(t *testing.T) {
	c := newTestCodec()
	a := FromTransport(loopback(t, "a")[0], c)
	defer a.Close()
	if err := a.Send("b", struct{ X int }{1}, 0); err == nil {
		t.Fatal("want encode error for unregistered payload type")
	}
}

func TestFromTransportCountsUndecodableFrames(t *testing.T) {
	tcp := loopback(t, "raw", "b")
	c := newTestCodec()
	raw := tcp[0]
	b := FromTransport(tcp[1], c)
	defer raw.Close()
	defer b.Close()
	b.SetHandler(func(string, any, int) {})

	if err := raw.Send("b", []byte("not an envelope")); err != nil {
		t.Fatal(err)
	}
	other := NewCodec()
	other.Register("nobody/home", ping{})
	unknown, err := other.Encode(ping{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := raw.Send("b", unknown); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if b.Dropped() == 2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("dropped = %d, want 2", b.Dropped())
}

// --- middleware ---------------------------------------------------------

func TestWrapOrderOutermostFirst(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	base := FromSim(sim.MustAddNode("a"))
	sim.MustAddNode("b")
	var order []string
	mark := func(name string) Middleware {
		return Tap(func(string, any, int) { order = append(order, name) }, nil)
	}
	ep := Wrap(base, mark("outer"), mark("inner"))
	if err := ep.Send("b", "x", 1); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v", order)
	}
	if ep.ID() != "a" {
		t.Fatalf("wrapped ID = %q", ep.ID())
	}
}

// TestWrapSkipsNilMiddleware: a nil middleware in the list wraps nothing.
func TestWrapSkipsNilMiddleware(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	base := FromSim(sim.MustAddNode("a"))
	if ep := Wrap(base, nil); ep != Endpoint(base) {
		t.Fatalf("Wrap(ep, nil) = %T, want ep itself", ep)
	}
}

// countless is an endpoint that neither counts drops nor wraps another.
type countless struct{ Endpoint }

// TestDroppedOfWithoutCounter: a chain that ends in no drop counter, or no
// endpoint at all, reads zero.
func TestDroppedOfWithoutCounter(t *testing.T) {
	if d := DroppedOf(nil); d != 0 {
		t.Errorf("DroppedOf(nil) = %d", d)
	}
	if d := DroppedOf(Wrap(countless{}, Tap(nil, nil))); d != 0 {
		t.Errorf("DroppedOf(tap over an endpoint with no counter) = %d", d)
	}
}

// TestTapRemovesHandler: SetHandler(nil) through a tap removes the
// substrate's handler, so a delivery after it is a counted drop.
func TestTapRemovesHandler(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := FromSim(sim.MustAddNode("a"))
	b := FromSim(sim.MustAddNode("b"))
	wb := Wrap(b, Tap(nil, nil))
	wb.SetHandler(func(string, any, int) { t.Error("delivered after the handler was removed") })
	wb.SetHandler(nil)
	if err := a.Send("b", 1, 0); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if d := b.Dropped(); d != 1 {
		t.Fatalf("Dropped() = %d, want 1", d)
	}
}

// TestDroppedOfWalksChain: the drop probe follows Unwrap through a stack of
// middlewares down to the substrate adapter that counts the drops.
func TestDroppedOfWalksChain(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := FromSim(sim.MustAddNode("a"))
	b := FromSim(sim.MustAddNode("b"))
	// No handler is ever installed on b, so every delivery is a drop.
	wb := Wrap(b, Tap(nil, nil), Tap(nil, nil))
	for i := 0; i < 3; i++ {
		if err := a.Send("b", i, 0); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if d := DroppedOf(wb); d != 3 {
		t.Fatalf("DroppedOf through two taps = %d, want 3", d)
	}
}

func TestLoggingMiddleware(t *testing.T) {
	sim := netsim.New(1, netsim.LocalLink)
	a := FromSim(sim.MustAddNode("a"))
	b := FromSim(sim.MustAddNode("b"))
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	wa := Wrap(a, Logging(logf))
	wb := Wrap(b, Logging(logf))
	wb.SetHandler(func(string, any, int) {})
	if err := wa.Send("b", "x", 3); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 ||
		!strings.Contains(lines[0], "send to=b") ||
		!strings.Contains(lines[1], "recv from=a") {
		t.Fatalf("log lines = %v", lines)
	}
}

func TestRegisterBaseHello(t *testing.T) {
	c := NewCodec()
	RegisterBase(c)
	data, err := c.Encode(&Hello{Addr: "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := got.(*Hello)
	if !ok || h.Addr != "127.0.0.1:9" {
		t.Fatalf("got %#v", got)
	}
}
