package fabric_test

// Binary codec conformance: round-trip parity against the JSON codec for
// every payload type registered anywhere in the repo (fabric, session,
// mobile, crdt, engine — the group packet, being unexported, has its parity
// test in package group), plus the frame-level error paths: truncation at
// every byte boundary, oversized length prefixes, trailing bytes, version
// mismatches, unknown tags, a JSON envelope at a binary endpoint — and the
// body cursor (Reader) every ParseBinary in the repo is built on.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/crdt"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/mobile"
	"repro/internal/ot"
	"repro/internal/session"
	"repro/internal/transport"
)

// fullRegistry returns a codec with every wire type in the repo registered
// (except group's unexported packet), plus the binary codec sharing it.
func fullRegistry() (*fabric.Codec, *fabric.BinaryCodec) {
	reg := fabric.NewCodec()
	fabric.RegisterBase(reg)
	session.RegisterWire(reg)
	mobile.RegisterWire(reg)
	engine.RegisterWire(reg) // both engines: the OT messages and crdt's
	return reg, fabric.NewBinaryCodec(reg)
}

// registeredPayloads is one representative non-trivial instance per
// registered wire type. Zero values ride along implicitly: the fuzz and
// truncation tests below slice these frames every which way.
func registeredPayloads() map[string]any {
	items := []session.Item{
		{Seq: 1, From: "alice", Kind: "edit", Body: "insert x", At: 5 * time.Millisecond},
		{Seq: 2, From: "bob", Kind: "chat", Body: "howdy ☺", At: 7 * time.Millisecond},
	}
	seq := crdt.NewSequence("a")
	seq.Insert(0, 'h')
	seq.Insert(1, 'é')
	seq.Delete(0)
	set := crdt.NewSet("b")
	set.Add("x")
	set.Add("y")
	set.Remove("x")
	ctr := crdt.NewCounter("c")
	ctr.Add(41)
	ctr.Add(-4)
	op := ot.Op{Kind: ot.Insert, Pos: 4, Ch: 'ß', Site: "c1"}
	return map[string]any{
		"crdt/op":           crdt.MsgOp{Doc: "d", Op: crdt.Op{Kind: crdt.OpSetRemove, Site: "b", Seq: 9, Elem: "doc", Dots: []crdt.ID{{N: 1, Site: "a"}, {N: 4, Site: "b"}}, Delta: -77}},
		"crdt/state seq":    crdt.MsgState{Doc: "d", Seq: seq.State()},
		"crdt/state set":    crdt.MsgState{Doc: "d", Set: set.State()},
		"crdt/state ctr":    crdt.MsgState{Doc: "d", Ctr: ctr.State()},
		"engine/ot-submit":  engine.MsgSubmit{Doc: "d", Sub: ot.Submission{Op: op, Base: 9, Site: "c1", Seq: 3}},
		"engine/ot-commit":  engine.MsgCommit{Doc: "d", C: ot.Committed{Op: op, Rev: 10, Site: "c1", Seq: 3}},
		"engine/ot-pull":    engine.MsgPull{Doc: "d", Base: 7},
		"engine/ot-commits": engine.MsgCommits{Doc: "d", Cs: []ot.Committed{{Op: op, Rev: 1, Site: "c1", Seq: 1}, {Op: op, Rev: 2, Site: "c2", Seq: 1}}},

		"fabric/hello":     fabric.Hello{Addr: "127.0.0.1:9999"},
		"session/join":     session.MsgJoin{From: "carol", Since: 41, State: session.Away},
		"session/join-ack": session.MsgJoinAck{Mode: session.Asynchronous, Backlog: items, Members: []string{"alice", "bob"}},
		"session/post":     session.MsgPost{From: "alice", Kind: "edit", Body: "delete y"},
		"session/items":    session.MsgItems{Items: items},
		"session/poll":     session.MsgPoll{From: "bob", Since: 2},
		"session/mode":     session.MsgMode{Mode: session.Synchronous},
		"session/presence": session.MsgPresence{From: "carol", State: session.Offline},
		"session/leave":    session.MsgLeave{From: "bob"},
		"mobile/traffic":   mobile.Traffic{Op: "fetch", Key: "doc/7", Bytes: 1024},
	}
}

// TestBinaryRoundTripParity: for every registered payload type, the binary
// codec round-trips to the same decoded value the JSON codec produces.
func TestBinaryRoundTripParity(t *testing.T) {
	reg, bin := fullRegistry()
	for tag, payload := range registeredPayloads() {
		bframe, err := bin.Encode(payload)
		if err != nil {
			t.Fatalf("%s: binary encode: %v", tag, err)
		}
		jframe, err := reg.Encode(payload)
		if err != nil {
			t.Fatalf("%s: json encode: %v", tag, err)
		}
		bdec, err := bin.Decode(bframe)
		if err != nil {
			t.Fatalf("%s: binary decode: %v", tag, err)
		}
		jdec, err := reg.Decode(jframe)
		if err != nil {
			t.Fatalf("%s: json decode: %v", tag, err)
		}
		if bdec == nil {
			t.Fatalf("%s: binary decode returned nil for a registered tag", tag)
		}
		if !reflect.DeepEqual(bdec, jdec) {
			t.Errorf("%s: binary round-trip %#v disagrees with json round-trip %#v", tag, bdec, jdec)
		}
	}
}

// TestBinaryJSONInterop: both ends of a link must run the same codec. A
// JSON envelope reaching a binary-selected endpoint is rejected by Decode
// and counted in Dropped(), never delivered.
func TestBinaryJSONInterop(t *testing.T) {
	reg, bin := fullRegistry()
	hub := transport.NewHub()
	jsonEP := fabric.FromTransport(hub.MustAttach("json"), reg)
	binEP := fabric.FromTransport(hub.MustAttach("bin"), bin)
	defer jsonEP.Close()
	defer binEP.Close()
	binEP.SetHandler(func(from string, payload any, _ int) {
		t.Errorf("binary endpoint delivered %T from %s", payload, from)
	})
	var sent uint64
	for tag, payload := range registeredPayloads() {
		jframe, err := reg.Encode(payload)
		if err != nil {
			t.Fatalf("%s: json encode: %v", tag, err)
		}
		if got, err := bin.Decode(jframe); err == nil {
			t.Fatalf("%s: binary codec accepted a json frame as %#v", tag, got)
		}
		if err := jsonEP.Send("bin", payload, 0); err != nil {
			t.Fatalf("%s: send: %v", tag, err)
		}
		sent++
	}
	deadline := time.Now().Add(2 * time.Second)
	for binEP.Dropped() != sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := binEP.Dropped(); d != sent {
		t.Fatalf("dropped = %d, want %d (one per json frame)", d, sent)
	}
}

// TestBinaryUnknownTag: frames for unregistered tags are skipped (nil, nil),
// matching the JSON codec's contract for foreign traffic.
func TestBinaryUnknownTag(t *testing.T) {
	full, fullBin := fullRegistry()
	frame, err := fullBin.Encode(mobile.Traffic{Op: "read", Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	bare := fabric.NewCodec()
	fabric.RegisterBase(bare)
	got, err := fabric.NewBinaryCodec(bare).Decode(frame)
	if err != nil || got != nil {
		t.Fatalf("unknown tag: got (%v, %v), want (nil, nil)", got, err)
	}
	_ = full
}

// TestBinaryTruncatedFrames: every proper prefix of a valid frame must fail
// with ErrTruncatedFrame — no panics, no silent partial decodes.
func TestBinaryTruncatedFrames(t *testing.T) {
	_, bin := fullRegistry()
	for tag, payload := range registeredPayloads() {
		frame, err := bin.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(frame); n++ {
			_, err := bin.Decode(frame[:n])
			if !errors.Is(err, fabric.ErrTruncatedFrame) {
				t.Fatalf("%s: prefix %d/%d bytes: got %v, want ErrTruncatedFrame", tag, n, len(frame), err)
			}
		}
	}
}

// TestBinaryBodyPrefixesAndTrailing goes under the frame to the body
// parsers, which the frame-length check above never lets a short body
// reach: for every payload with a hand-rolled body, each proper prefix of
// the body fails ParseBinary with ErrTruncatedFrame, and the body plus one
// byte is rejected as trailing garbage rather than as a truncation.
func TestBinaryBodyPrefixesAndTrailing(t *testing.T) {
	for tag, payload := range registeredPayloads() {
		app, ok := payload.(fabric.BinaryAppender)
		if !ok {
			continue // JSON body inside the binary frame (mobile.Traffic)
		}
		body, err := app.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		parse := func(b []byte) error {
			return reflect.New(reflect.TypeOf(payload)).Interface().(fabric.BinaryParser).ParseBinary(b)
		}
		if err := parse(body); err != nil {
			t.Fatalf("%s: own body rejected: %v", tag, err)
		}
		for n := 0; n < len(body); n++ {
			if err := parse(body[:n]); !errors.Is(err, fabric.ErrTruncatedFrame) {
				t.Fatalf("%s: body prefix %d/%d bytes: got %v, want ErrTruncatedFrame", tag, n, len(body), err)
			}
		}
		if err := parse(append(body, 0)); err == nil || errors.Is(err, fabric.ErrTruncatedFrame) {
			t.Fatalf("%s: body plus a trailing byte: got %v, want a trailing-bytes error", tag, err)
		}
	}
}

// TestCountBoundUsesElementSize pins Reader.Count's bound to the element's
// minimum encoded size: for each list on the wire, a body whose count would
// fit at one byte per element (the bound before the Reader) but not at the
// element's real minimum is refused at the count — before the caller sizes
// its allocation by it — with ErrTruncatedFrame. Members are absent: their
// minimum is one byte, so the two bounds coincide.
func TestCountBoundUsesElementSize(t *testing.T) {
	opHead := []byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0} // Doc, Kind, Site, Seq, ID, After, Ch, Elem
	cases := []struct {
		list   string
		into   fabric.BinaryParser
		head   []byte // the body up to the count
		n, pad int    // the count, then pad zero bytes: n <= pad < n*min
	}{
		{"items", &session.MsgItems{}, []byte{0}, 2, 9},
		{"ids", &crdt.MsgOp{}, opHead, 2, 3},
		{"nodes", &crdt.MsgState{}, []byte{0, 1}, 2, 11},
		{"vector entries", &crdt.MsgState{}, []byte{0, 1, 0}, 2, 3},
		{"elements", &crdt.MsgState{}, []byte{0, 2}, 2, 3},
		{"site counts", &crdt.MsgState{}, []byte{0, 3}, 2, 3},
		{"commits", &engine.MsgCommits{}, []byte{0}, 2, 13},
	}
	for _, tc := range cases {
		body := append(append([]byte{}, tc.head...), byte(tc.n))
		body = append(body, make([]byte, tc.pad)...)
		err := tc.into.ParseBinary(body)
		want := fmt.Sprintf("%d %s in %d bytes", tc.n, tc.list, tc.pad)
		if !errors.Is(err, fabric.ErrTruncatedFrame) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want ErrTruncatedFrame at the count (%q)", tc.list, err, want)
		}
	}
}

// TestBinaryOversizedLength: a declared body length past MaxBinaryFrame is
// rejected before any allocation, regardless of actual frame size.
func TestBinaryOversizedLength(t *testing.T) {
	_, bin := fullRegistry()
	frame, err := bin.Encode(fabric.Hello{Addr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// The length prefix sits right after the 4-byte header and the tag.
	tagLen := int(frame[3])
	binary.BigEndian.PutUint32(frame[4+tagLen:], fabric.MaxBinaryFrame+1)
	if _, err := bin.Decode(frame); !errors.Is(err, fabric.ErrOversizedFrame) {
		t.Fatalf("got %v, want ErrOversizedFrame", err)
	}
}

// TestBinaryTrailingBytes: extra bytes past the declared body are an error —
// the frame is the whole datagram, so surplus means corruption.
func TestBinaryTrailingBytes(t *testing.T) {
	_, bin := fullRegistry()
	frame, err := bin.Encode(session.MsgLeave{From: "zed"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bin.Decode(append(frame, 0xEE)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBinaryBadVersion pins the version gate.
func TestBinaryBadVersion(t *testing.T) {
	_, bin := fullRegistry()
	frame, err := bin.Encode(fabric.Hello{Addr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	frame[1] = 99
	if _, err := bin.Decode(frame); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestHelloBinaryBody: Hello opts into the hand-rolled binary body; its
// frame must not contain a JSON body, and trailing bytes inside the body
// must be rejected by the parser.
func TestHelloBinaryBody(t *testing.T) {
	_, bin := fullRegistry()
	frame, err := bin.Encode(fabric.Hello{Addr: "10.0.0.1:80"})
	if err != nil {
		t.Fatal(err)
	}
	if frame[2] != 1 {
		t.Fatalf("hello frame encoding byte = %d, want 1 (binary body)", frame[2])
	}
	var h fabric.Hello
	if err := h.ParseBinary([]byte{1, 'a', 'Z'}); err == nil {
		t.Fatal("hello body with trailing bytes accepted")
	}
}

// FuzzBinaryDecode: arbitrary bytes must never panic the decoder, and
// anything it does accept must re-encode and decode to the same value.
func FuzzBinaryDecode(f *testing.F) {
	_, bin := fullRegistry()
	for _, payload := range registeredPayloads() {
		frame, err := bin.Encode(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{0xC5})
	f.Add([]byte{0xC5, 1, 0, 255})
	f.Add([]byte(`{"type":"fabric/hello","body":{"addr":"x"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := bin.Decode(data)
		if err != nil || got == nil {
			return
		}
		frame, err := bin.Encode(got)
		if err != nil {
			t.Fatalf("re-encode of accepted value %#v: %v", got, err)
		}
		again, err := bin.Decode(frame)
		if err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("re-decode mismatch: %#v vs %#v (err %v)", got, again, err)
		}
	})
}

// FuzzConsumeString: Reader.String must be total over arbitrary input and
// exact over AppendString's output.
func FuzzConsumeString(f *testing.F) {
	f.Add("", []byte{})
	f.Add("hello", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, s string, junk []byte) {
		r := fabric.NewReader(fabric.AppendString(nil, s))
		if got, err := r.String(), r.Done("string"); err != nil || got != s {
			t.Fatalf("round-trip %q: got %q err=%v", s, got, err)
		}
		// Arbitrary bytes: must not panic; a failed read is "" and sticks.
		r = fabric.NewReader(junk)
		if got := r.String(); r.Err() != nil {
			if got != "" || !errors.Is(r.Err(), fabric.ErrTruncatedFrame) || r.Done("junk") != r.Err() {
				t.Fatalf("junk %x: got %q, err %v, done %v", junk, got, r.Err(), r.Done("junk"))
			}
		}
	})
}

// TestReader drives each read method over a well-formed field, a truncated
// one, and a cursor that has already failed: ok reads the value and
// advances, truncated records an ErrTruncatedFrame, and after an error
// every read is the zero value and the first error stays.
func TestReader(t *testing.T) {
	reads := []struct {
		name      string
		ok, short []byte
		read      func(r *fabric.Reader) any
		want      any
	}{
		{"Uvarint", []byte{0xAC, 0x02}, []byte{0xAC}, func(r *fabric.Reader) any { return r.Uvarint() }, uint64(300)},
		{"Varint", []byte{0x99, 0x01}, []byte{0x99}, func(r *fabric.Reader) any { return r.Varint() }, int64(-77)},
		{"Byte", []byte{7}, nil, func(r *fabric.Reader) any { return r.Byte() }, byte(7)},
		{"String", []byte{2, 'h', 'i'}, []byte{2, 'h'}, func(r *fabric.Reader) any { return r.String() }, "hi"},
		{"Count", []byte{2, 0, 0, 0, 0, 0, 0}, []byte{2, 0, 0, 0, 0, 0}, func(r *fabric.Reader) any { return r.Count("triples", 3) }, 2},
	}
	for _, tc := range reads {
		zero := reflect.Zero(reflect.TypeOf(tc.want)).Interface()

		r := fabric.NewReader(append(tc.ok, 0xEE))
		if got := tc.read(&r); got != tc.want || r.Err() != nil {
			t.Errorf("%s ok: got %v (err %v), want %v", tc.name, got, r.Err(), tc.want)
		}
		if tc.name != "Count" { // Count leaves the elements for the caller
			if got := r.Byte(); got != 0xEE || r.Done(tc.name) != nil {
				t.Errorf("%s ok: cursor not just past the field (next byte %#x, done %v)", tc.name, got, r.Done(tc.name))
			}
		}

		r = fabric.NewReader(tc.short)
		if got := tc.read(&r); got != zero || !errors.Is(r.Err(), fabric.ErrTruncatedFrame) {
			t.Errorf("%s truncated: got %v, err %v; want zero and ErrTruncatedFrame", tc.name, got, r.Err())
		}

		// A string declaring more than remains fails with the field's own
		// bytes still physically behind the cursor: they must not be read.
		r = fabric.NewReader(append([]byte{9}, tc.ok...))
		_ = r.String()
		first := r.Err()
		if got := tc.read(&r); got != zero || r.Err() != first || first == nil {
			t.Errorf("%s after error: got %v, err %v; want zero and the first error %v", tc.name, got, r.Err(), first)
		}
	}

	// Done: nil on a fully consumed body, an error (not a truncation) on
	// trailing bytes, and the first read error once one has happened — even
	// if that read also left nothing behind.
	r := fabric.NewReader([]byte{1})
	r.Byte()
	if err := r.Done("clean"); err != nil {
		t.Errorf("Done clean: %v", err)
	}
	r = fabric.NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Done("trailing"); err == nil || errors.Is(err, fabric.ErrTruncatedFrame) {
		t.Errorf("Done trailing: got %v, want a non-truncation error", err)
	}
	r = fabric.NewReader([]byte{5, 'x', 'y'})
	_ = r.String()
	first := r.Err()
	r.Uvarint()
	if err := r.Done("sticky"); err == nil || err != first || !errors.Is(err, fabric.ErrTruncatedFrame) {
		t.Errorf("Done sticky: got %v, want the first error %v", err, first)
	}
}
