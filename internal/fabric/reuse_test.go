package fabric_test

// The receive path copies a frame body once: the TCP transport reads every
// frame of a connection into one reused buffer, so a decoded payload must
// not alias the bytes it was decoded from. Decode converts the body to one
// string, and Reader.String hands out substrings of it instead of one copy
// per field.

import (
	"bytes"
	"testing"

	"repro/internal/crdt"
	"repro/internal/fabric"
	"repro/internal/session"
)

// TestDecodedPayloadOutlivesFrame: for every registered payload type,
// decode a frame, overwrite the frame with 0xFF as the transport's next
// read would, and re-encode. The bytes must match the original frame, so
// no decoded field points into the input.
func TestDecodedPayloadOutlivesFrame(t *testing.T) {
	codec := fullRegistry()
	for tag, payload := range registeredPayloads() {
		frame, err := codec.Encode(payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", tag, err)
		}
		buf := bytes.Clone(frame)
		decoded, err := codec.Decode(buf)
		if err != nil || decoded == nil {
			t.Fatalf("%s: decode = %v, %v", tag, decoded, err)
		}
		for i := range buf {
			buf[i] = 0xFF
		}
		again, err := codec.Encode(decoded)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", tag, err)
		}
		if !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoded after the input was overwritten:\n got %x\nwant %x", tag, again, frame)
		}
	}
}

// TestBinaryDecodeAllocs pins the cost of decoding the per-keystroke
// frames, each released after its decode as FromTransport releases it: the
// payload value itself, one string holding every string field, and for
// MsgItems the item slice. A MsgPost is Scoped, so its value comes back
// from the free list and only the string is new.
func TestBinaryDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	codec := fullRegistry()
	cases := []struct {
		name    string
		payload any
		want    float64
	}{
		{"session/post", session.MsgPost{Doc: "doc", From: "alice", Kind: "eng/op", Body: "|AQID"}, 1},
		{"session/items x1", session.MsgItems{Doc: "doc", Items: []session.Item{{Seq: 9, From: "alice", Kind: "eng/op", Body: "|AQID", At: 3}}}, 3},
		{"crdt/op", crdt.MsgOp{Doc: "doc", Op: crdt.Op{Kind: crdt.OpSeqInsert, Site: "alice", Seq: 4, ID: crdt.ID{N: 4, Site: "alice"}, After: crdt.ID{N: 3, Site: "bob"}, Ch: 'x'}}, 2},
	}
	for _, tc := range cases {
		frame, err := codec.Encode(tc.payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(100, func() {
			v, err := codec.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			fabric.Release(v)
		})
		if got != tc.want {
			t.Errorf("%s: Decode allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
}

// TestScopedValueReuse: a MsgPost is Scoped, so a released post is zeroed
// and the next decode parses into it. After a post with every field set, a
// post with every field empty and a body whose parse failed (which leaves
// the fields before the failure set, and goes back to the list itself), a
// decode of either post must reuse that value and equal a decode into a new
// one.
func TestScopedValueReuse(t *testing.T) {
	codec := session.NewWireCodec()
	type input struct {
		name  string
		frame []byte
		fresh session.MsgPost // the post a decode into a new value reads
	}
	inputOf := func(name string, p session.MsgPost) input {
		frame, err := codec.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := p.AppendBinary(nil)
		var fresh session.MsgPost
		if err := fresh.ParseBinary(fabric.NewReader(string(body))); err != nil {
			t.Fatal(err)
		}
		return input{name, bytes.Clone(frame), fresh}
	}
	full := inputOf("full", session.MsgPost{Doc: "doc", From: "alice", Kind: "eng/op", Body: "|AQID"})
	empty := inputOf("empty", session.MsgPost{})
	// The failed body declares its Kind 127 bytes long, past the body's
	// end, once Doc and From have parsed.
	failed := input{name: "failed", frame: bytes.Clone(full.frame)}
	failed.frame[len(failed.frame)-len("\x06eng/op\x05|AQID")] = 0x7F
	// decode returns the post frame decodes to, or nil when it does not.
	decode := func(frame []byte) *session.MsgPost {
		v, err := codec.Decode(frame)
		if err != nil {
			return nil
		}
		return v.(*session.MsgPost)
	}
	if decode(failed.frame) != nil {
		t.Fatal("the failed body decoded")
	}
	for _, before := range []input{full, empty, failed} {
		for _, after := range []input{full, empty} {
			// The value the next decode takes: one just released.
			kept := decode(full.frame)
			fabric.Release(kept)
			if *kept != (session.MsgPost{}) {
				t.Fatalf("a released post holds %+v, want it zeroed", *kept)
			}
			if m := decode(before.frame); m != nil {
				if m != kept {
					t.Fatalf("%s: the decode did not reuse the released post", before.name)
				}
				fabric.Release(m)
			}
			m := decode(after.frame)
			if m != kept {
				t.Fatalf("%s post after a %s one: the decode did not reuse the released post", after.name, before.name)
			}
			if *m != after.fresh {
				t.Fatalf("%s post after a %s one decoded as %+v, want %+v", after.name, before.name, *m, after.fresh)
			}
			fabric.Release(m)
		}
	}
}
