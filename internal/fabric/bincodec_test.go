package fabric_test

// Codec conformance: a round trip for every payload type registered
// anywhere in the repo (fabric, session, crdt, engine — the group
// packet, being unexported, has its round-trip table in package group),
// plus the frame-level error paths: truncation at every byte boundary,
// oversized length prefixes, trailing bytes, version mismatches, unknown
// tags, a JSON envelope from a pre-binary peer — and the body cursor
// (Reader) every ParseBinary in the repo is built on.

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
	"repro/internal/ot"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wiretest"
)

// fullRegistry returns a codec with every wire type in the repo registered
// (except group's unexported packet).
func fullRegistry() *fabric.Codec {
	c := fabric.NewCodec()
	fabric.RegisterBase(c)
	session.RegisterWire(c)
	engine.RegisterWire(c) // both engines: the OT messages and crdt's
	return c
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
	// An item run as a push or a catch-up backlog carries it: two writers
	// taking turns, one of them writing twice running, under two kinds, with
	// the clock moving forward and standing still.
	run := []session.Item{
		{Seq: 300, From: "p1", Kind: "eng/op", Body: "|\x00a", At: time.Second},
		{Seq: 301, From: "p2", Kind: "eng/op", Body: "|\x00b", At: time.Second + 40*time.Microsecond},
		{Seq: 302, From: "p2", Kind: "eng/op", Body: "|\x00c", At: time.Second + 90*time.Microsecond},
		{Seq: 303, From: "p1", Kind: "chat", Body: "hi", At: time.Second + 90*time.Microsecond},
		{Seq: 304, From: "p1", Kind: "eng/op", At: time.Second + 2*time.Millisecond},
	}
	// A submitted op has no site (its sender is its site) and a committed op
	// its commit's, so each decodes to what was encoded.
	op := ot.Op{Kind: ot.Insert, Pos: 4, Ch: 'ß'}
	c1, c2 := op, op
	c1.Site, c2.Site = "c1", "c2"
	return map[string]any{
		"crdt/op insert":    crdt.MsgOp{Doc: "d", Op: crdt.Op{Kind: crdt.OpSeqInsert, Site: "a", Seq: 4, ID: crdt.ID{N: 4, Site: "a"}, After: crdt.ID{N: 3, Site: "b"}, Ch: 'x'}},
		"crdt/state seq":    crdt.MsgState{Doc: "d", Seq: seq.State()},
		"engine/ot-submit":  engine.MsgSubmit{Sub: ot.Submission{Op: op, Base: 9, Seq: 3}},
		"engine/ot-commit":  engine.MsgCommit{C: ot.Committed{Op: c1, Rev: 10, Site: "c1", Seq: 3}},
		"engine/ot-pull":    engine.MsgPull{Base: 7},
		"engine/ot-commits": engine.MsgCommits{Cs: []ot.Committed{{Op: c1, Rev: 1, Site: "c1", Seq: 1}, {Op: c2, Rev: 2, Site: "c2", Seq: 1}}},

		"fabric/hello":      fabric.Hello{Addr: "127.0.0.1:9999"},
		"session/join":      session.MsgJoin{From: "carol", Since: 41, State: session.Away},
		"session/join-ack":  session.MsgJoinAck{Mode: session.Asynchronous, Backlog: items, Members: []string{"alice", "bob"}},
		"session/post":      session.MsgPost{From: "alice", Kind: "edit", Body: "delete y"},
		"session/items":     session.MsgItems{Items: items},
		"session/items run": session.MsgItems{Doc: "d", Items: run},
		"session/poll":      session.MsgPoll{From: "bob", Since: 2},
		"session/presence":  session.MsgPresence{From: "carol", State: session.Offline},
		"session/leave":     session.MsgLeave{From: "bob"},
	}
}

// TestBinaryRoundTripParity: every registered payload type decodes to the
// value that was encoded, and between them the instances of a type set
// every field it carries, so a field both halves of a codec leave out
// cannot hide behind a zero. registeredPayloads leaves some fields zero
// (their frames are pinned in testdata/frames.golden); the instances added
// here set them. An OT submission's site is a field no body carries: the
// server files a submission under its sender.
func TestBinaryRoundTripParity(t *testing.T) {
	codec := fullRegistry()
	payloads := registeredPayloads()
	for name, p := range map[string]any{
		"session/join doc": session.MsgJoin{Doc: "d", From: "a", Since: 2, State: session.Away},
		"session/join-ack doc": session.MsgJoinAck{Doc: "d", Mode: session.Asynchronous,
			Backlog: []session.Item{{Seq: 1, From: "b", Kind: "chat", Body: "x"}}, Members: []string{"a", "b"}},
		"session/post doc":     session.MsgPost{Doc: "d", From: "a", Kind: "edit", Body: "insert"},
		"session/items doc":    session.MsgItems{Doc: "d", Items: []session.Item{{Seq: 2, From: "a"}}},
		"session/poll doc":     session.MsgPoll{Doc: "d", From: "a", Since: 1},
		"session/presence doc": session.MsgPresence{Doc: "d", From: "a", State: session.Active},
		"session/leave doc":    session.MsgLeave{Doc: "d", From: "a"},
	} {
		payloads[name] = p
	}
	wiretest.Check(t, payloads, func(v any) (any, error) {
		frame, err := codec.Encode(v)
		if err != nil {
			return nil, err
		}
		got, err := codec.Decode(frame)
		if err != nil || got == nil {
			return got, err
		}
		return reflect.ValueOf(got).Elem().Interface(), nil
	}, map[string][]string{
		"engine.MsgSubmit": {"ot.Submission.Site", "ot.Op.Site"},
	})
}

// TestBinaryJSONInterop: a JSON envelope — what a peer from before the one
// codec sent under -codec json — reaching an endpoint is rejected by Decode
// and counted in Dropped(), never delivered.
func TestBinaryJSONInterop(t *testing.T) {
	codec := fullRegistry()
	book := transport.NewAddressBook()
	raw, err := transport.ListenTCP("json", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	bin, err := transport.ListenTCP("bin", "127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	ep := fabric.FromTransport(bin, codec)
	defer ep.Close()
	ep.SetHandler(func(from string, payload any, _ int) {
		t.Errorf("endpoint delivered %T from %s", payload, from)
	})
	envelopes := []string{
		`{"type":"fabric/hello","body":{"addr":"127.0.0.1:9"}}`,
		`{"type":"session/post","body":{"From":"alice","Kind":"chat","Body":"hi"}}`,
		`{"type":"group/packet","body":{"Kind":1,"From":"m0"}}`,
	}
	for _, env := range envelopes {
		if got, err := codec.Decode([]byte(env)); err == nil {
			t.Fatalf("codec accepted a json envelope as %#v", got)
		}
		if err := raw.Send("bin", []byte(env)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for ep.Dropped() != uint64(len(envelopes)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := ep.Dropped(); d != uint64(len(envelopes)) {
		t.Fatalf("dropped = %d, want %d (one per json envelope)", d, len(envelopes))
	}
}

// TestBinaryUnknownTag: frames for unregistered tags are skipped (nil, nil):
// foreign traffic on a shared endpoint is not an error.
func TestBinaryUnknownTag(t *testing.T) {
	frame, err := fullRegistry().Encode(session.MsgLeave{From: "k"})
	if err != nil {
		t.Fatal(err)
	}
	bare := fabric.NewCodec()
	fabric.RegisterBase(bare)
	got, err := bare.Decode(frame)
	if err != nil || got != nil {
		t.Fatalf("unknown tag: got (%v, %v), want (nil, nil)", got, err)
	}
}

// TestParseBody: for every registered payload TagOf names the frame's tag,
// and ParseBody reads the frame's body alone (no magic, version,
// body-encoding byte, tag or length prefix) back to the value. Every proper
// prefix of a body fails with ErrTruncatedFrame, a tag nothing registered is
// an error naming it, and so is an unregistered payload type.
func TestParseBody(t *testing.T) {
	codec := fullRegistry()
	for name, payload := range registeredPayloads() {
		frame, err := codec.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		tagLen := int(frame[3])
		tag, body := string(frame[4:4+tagLen]), string(frame[8+tagLen:])
		if got, err := codec.TagOf(payload); err != nil || got != tag {
			t.Fatalf("%s: TagOf = %q, %v; want %q", name, got, err, tag)
		}
		back, err := codec.ParseBody(tag, body)
		if err != nil {
			t.Fatalf("%s: ParseBody: %v", name, err)
		}
		if again, _ := codec.Encode(back); string(again) != string(frame) {
			t.Errorf("%s: decoded to %#v", name, back)
		}
		for n := 0; n < len(body); n++ {
			_, err := codec.ParseBody(tag, body[:n])
			if !errors.Is(err, fabric.ErrTruncatedFrame) {
				t.Fatalf("%s: prefix %d/%d bytes: got %v", name, n, len(body), err)
			}
		}
	}
	bare := fabric.NewCodec()
	if got, err := bare.ParseBody("session/leave", "\x01k"); err == nil || !strings.Contains(err.Error(), `"session/leave"`) {
		t.Fatalf("unknown tag: got (%v, %v), want an error naming the tag", got, err)
	}
	if _, err := bare.TagOf(fabric.Hello{}); err == nil {
		t.Fatal("unregistered payload type has a tag")
	}
}

// TestBinaryTruncatedFrames: every proper prefix of a valid frame must fail
// with ErrTruncatedFrame — no panics, no silent partial decodes.
func TestBinaryTruncatedFrames(t *testing.T) {
	codec := fullRegistry()
	for tag, payload := range registeredPayloads() {
		frame, err := codec.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(frame); n++ {
			_, err := codec.Decode(frame[:n])
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
		body, err := payload.(fabric.BinaryAppender).AppendBinary(nil)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		parse := func(b []byte) error {
			return reflect.New(reflect.TypeOf(payload)).Interface().(fabric.BinaryParser).ParseBinary(fabric.NewReader(string(b)))
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
	cases := []struct {
		list   string
		into   fabric.BinaryParser
		head   []byte // the body up to the count
		n, pad int    // the count, then pad zero bytes: n <= pad < n*min
	}{
		{"items", &session.MsgItems{}, []byte{0}, 2, 9},
		{"nodes", &crdt.MsgState{}, []byte{0, 1}, 2, 11},
		{"vector entries", &crdt.MsgState{}, []byte{0, 1, 0}, 2, 3},
		{"commits", &engine.MsgCommits{}, nil, 2, 11},
	}
	for _, tc := range cases {
		body := append(append([]byte{}, tc.head...), byte(tc.n))
		body = append(body, make([]byte, tc.pad)...)
		err := tc.into.ParseBinary(fabric.NewReader(string(body)))
		want := fmt.Sprintf("%d %s in %d bytes", tc.n, tc.list, tc.pad)
		if !errors.Is(err, fabric.ErrTruncatedFrame) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want ErrTruncatedFrame at the count (%q)", tc.list, err, want)
		}
	}
}

// TestBinaryOversizedLength: a declared body length past MaxBinaryFrame is
// rejected before any allocation, regardless of actual frame size.
func TestBinaryOversizedLength(t *testing.T) {
	codec := fullRegistry()
	frame, err := codec.Encode(fabric.Hello{Addr: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// The length prefix sits right after the 4-byte header and the tag.
	tagLen := int(frame[3])
	binary.BigEndian.PutUint32(frame[4+tagLen:], fabric.MaxBinaryFrame+1)
	if _, err := codec.Decode(frame); !errors.Is(err, fabric.ErrOversizedFrame) {
		t.Fatalf("got %v, want ErrOversizedFrame", err)
	}
}

// TestBinaryTrailingBytes: extra bytes past the declared body are an error —
// the frame is the whole datagram, so surplus means corruption.
func TestBinaryTrailingBytes(t *testing.T) {
	codec := fullRegistry()
	frame, err := codec.Encode(session.MsgLeave{From: "zed"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.Decode(append(frame, 0xEE)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBinaryBadVersion pins the version gate: an unknown version, and
// version 1, whose item runs wrote every item in full, are refused. The
// hello body is the same in both versions, so only the gate refuses it.
func TestBinaryBadVersion(t *testing.T) {
	codec := fullRegistry()
	for _, v := range []byte{1, 99} {
		frame, err := codec.Encode(fabric.Hello{Addr: "x"})
		if err != nil {
			t.Fatal(err)
		}
		frame[1] = v
		if _, err := codec.Decode(frame); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("version %d: got %v, want a version error", v, err)
		}
	}
}

// TestHelloBinaryBody: Hello's frame says binary body in its encoding
// byte, and trailing bytes inside the body are rejected by the parser.
func TestHelloBinaryBody(t *testing.T) {
	codec := fullRegistry()
	frame, err := codec.Encode(fabric.Hello{Addr: "10.0.0.1:80"})
	if err != nil {
		t.Fatal(err)
	}
	if frame[2] != 1 {
		t.Fatalf("hello frame encoding byte = %d, want 1 (binary body)", frame[2])
	}
	var h fabric.Hello
	if err := h.ParseBinary(fabric.NewReader("\x01aZ")); err == nil {
		t.Fatal("hello body with trailing bytes accepted")
	}
}

// FuzzBinaryDecode: arbitrary bytes must never panic the decoder, and
// anything it does accept must re-encode and decode to the same value.
func FuzzBinaryDecode(f *testing.F) {
	codec := fullRegistry()
	for _, payload := range registeredPayloads() {
		frame, err := codec.Encode(payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, frame := range readFrames(f, "testdata/frames-retired.golden") {
		f.Add(frame)
	}
	f.Add([]byte{0xC5})
	f.Add([]byte{0xC5, 2, 0, 255})
	f.Add([]byte{0xC5, 2, 1, 1, 'x', 0, 0, 0, 0}) // well-formed, tag "x" unregistered: skipped
	f.Add([]byte(`{"type":"fabric/hello","body":{"addr":"x"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := codec.Decode(data)
		if err != nil || got == nil {
			return
		}
		frame, err := codec.Encode(got)
		if err != nil {
			t.Fatalf("re-encode of accepted value %#v: %v", got, err)
		}
		again, err := codec.Decode(frame)
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
		r := fabric.NewReader(string(fabric.AppendString(nil, s)))
		if got, err := r.String(), r.Done("string"); err != nil || got != s {
			t.Fatalf("round-trip %q: got %q err=%v", s, got, err)
		}
		// Arbitrary bytes: must not panic; a failed read is "" and sticks.
		r = fabric.NewReader(string(junk))
		if got := r.String(); r.Err() != nil {
			if got != "" || !errors.Is(r.Err(), fabric.ErrTruncatedFrame) || r.Done("junk") != r.Err() {
				t.Fatalf("junk %x: got %q, err %v, done %v", junk, got, r.Err(), r.Done("junk"))
			}
		}
	})
}

// FuzzReaderVarint: over arbitrary bytes, Reader.Uvarint and Reader.Varint
// accept and reject exactly what encoding/binary does, except that they
// also reject a non-minimal spelling (a last byte of zero after the first),
// and an accepted read yields its value and consumes its byte count. A
// rejected read is a truncation that leaves the zero value.
func FuzzReaderVarint(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add([]byte{0xAC, 0x02, 0x07})
	f.Add(binary.AppendUvarint(nil, 1<<64-1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02})       // overflows in the tenth byte
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}) // eleven bytes
	// Non-minimal spellings, which binary reads and Reader refuses.
	f.Add([]byte{0x80, 0x00})
	f.Add([]byte{0xAC, 0x82, 0x00})
	// remaining counts what a read left behind by reading it byte by byte.
	remaining := func(r *fabric.Reader) int {
		n := 0
		for r.Byte(); r.Err() == nil; r.Byte() {
			n++
		}
		return n
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		u := fabric.NewReader(string(data))
		gotU := u.Uvarint()
		wantU, n := binary.Uvarint(data)
		v := fabric.NewReader(string(data))
		gotV := v.Varint()
		wantV, m := binary.Varint(data)
		if n != m {
			t.Fatalf("%x: binary.Uvarint read %d bytes, binary.Varint %d", data, n, m)
		}
		if n > 1 && data[n-1] == 0 {
			n = 0 // non-minimal: binary reads it, Reader refuses it
		}
		if n <= 0 {
			if gotU != 0 || gotV != 0 || !errors.Is(u.Err(), fabric.ErrTruncatedFrame) || !errors.Is(v.Err(), fabric.ErrTruncatedFrame) {
				t.Fatalf("%x: binary rejects (%d), Reader gave %d, %d (errs %v, %v)", data, n, gotU, gotV, u.Err(), v.Err())
			}
			return
		}
		if u.Err() != nil || v.Err() != nil || gotU != wantU || gotV != wantV {
			t.Fatalf("%x: Reader gave %d, %d (errs %v, %v), binary %d, %d", data, gotU, gotV, u.Err(), v.Err(), wantU, wantV)
		}
		if ru, rv := remaining(&u), remaining(&v); len(data)-ru != n || len(data)-rv != n {
			t.Fatalf("%x: Reader consumed %d and %d bytes, binary %d", data, len(data)-ru, len(data)-rv, n)
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

		r := fabric.NewReader(string(append(tc.ok, 0xEE)))
		if got := tc.read(&r); got != tc.want || r.Err() != nil {
			t.Errorf("%s ok: got %v (err %v), want %v", tc.name, got, r.Err(), tc.want)
		}
		if tc.name != "Count" { // Count leaves the elements for the caller
			if got := r.Byte(); got != 0xEE || r.Done(tc.name) != nil {
				t.Errorf("%s ok: cursor not just past the field (next byte %#x, done %v)", tc.name, got, r.Done(tc.name))
			}
		}

		r = fabric.NewReader(string(tc.short))
		if got := tc.read(&r); got != zero || !errors.Is(r.Err(), fabric.ErrTruncatedFrame) {
			t.Errorf("%s truncated: got %v, err %v; want zero and ErrTruncatedFrame", tc.name, got, r.Err())
		}

		// A string declaring more than remains fails with the field's own
		// bytes still physically behind the cursor: they must not be read.
		r = fabric.NewReader(string(append([]byte{9}, tc.ok...)))
		_ = r.String()
		first := r.Err()
		if got := tc.read(&r); got != zero || r.Err() != first || first == nil {
			t.Errorf("%s after error: got %v, err %v; want zero and the first error %v", tc.name, got, r.Err(), first)
		}
	}

	// Done: nil on a fully consumed body, an error (not a truncation) on
	// trailing bytes, and the first read error once one has happened — even
	// if that read also left nothing behind.
	r := fabric.NewReader("\x01")
	r.Byte()
	if err := r.Done("clean"); err != nil {
		t.Errorf("Done clean: %v", err)
	}
	r = fabric.NewReader("\x01\x02")
	r.Byte()
	if err := r.Done("trailing"); err == nil || errors.Is(err, fabric.ErrTruncatedFrame) {
		t.Errorf("Done trailing: got %v, want a non-truncation error", err)
	}
	r = fabric.NewReader("\x05xy")
	_ = r.String()
	first := r.Err()
	r.Uvarint()
	if err := r.Done("sticky"); err == nil || err != first || !errors.Is(err, fabric.ErrTruncatedFrame) {
		t.Errorf("Done sticky: got %v, want the first error %v", err, first)
	}
}
