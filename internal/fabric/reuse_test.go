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
// frames: the payload value itself, one string holding every string field,
// and for MsgItems the item slice.
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
		{"session/post", session.MsgPost{Doc: "doc", From: "alice", Kind: "eng/op", Body: "|AQID"}, 2},
		{"session/items x1", session.MsgItems{Doc: "doc", Items: []session.Item{{Seq: 9, From: "alice", Kind: "eng/op", Body: "|AQID", At: 3}}}, 3},
		{"crdt/op", crdt.MsgOp{Doc: "doc", Op: crdt.Op{Kind: crdt.OpSeqInsert, Site: "alice", Seq: 4, ID: crdt.ID{N: 4, Site: "alice"}, After: crdt.ID{N: 3, Site: "bob"}, Ch: 'x'}}, 2},
	}
	for _, tc := range cases {
		frame, err := codec.Encode(tc.payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := codec.Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.want {
			t.Errorf("%s: Decode allocates %v objects, want %v", tc.name, got, tc.want)
		}
	}
}
