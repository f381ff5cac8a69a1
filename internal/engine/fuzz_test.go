package engine

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fabric"
	"repro/internal/ot"
)

// FuzzEngineWireDecode feeds arbitrary bytes to the OT message body
// parsers (crdt's FuzzWireDecode covers the other engine's): they must
// never panic, and anything they accept must re-encode to a body that
// parses back to the same message and encodes to the same bytes again.
// (The input itself need not come back: a varint wider than its field,
// such as an op's rune, is truncated on read.)
func FuzzEngineWireDecode(f *testing.F) {
	op := ot.Op{Kind: ot.Delete, Pos: 3, Ch: 'q'}
	seeds := []fabric.BinaryAppender{
		MsgSubmit{Sub: ot.Submission{Op: op, Base: 2, Seq: 5}},
		MsgCommit{C: ot.Committed{Op: op, Rev: 3, Site: "c1", Seq: 5}},
		MsgPull{Base: 8},
		MsgCommits{Cs: []ot.Committed{{Op: op, Rev: 1, Site: "c1", Seq: 1}, {Op: op, Rev: 2, Site: "c2", Seq: 1}}},
	}
	for which, seed := range seeds {
		body, err := seed.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(which), body)
	}
	f.Add(uint8(3), []byte{0, 0xFF, 0xFF, 0xFF, 0x0F, 1, 2, 3})
	type wire interface {
		fabric.BinaryAppender
		fabric.BinaryParser
	}
	fresh := []func() wire{
		func() wire { return &MsgSubmit{} },
		func() wire { return &MsgCommit{} },
		func() wire { return &MsgPull{} },
		func() wire { return &MsgCommits{} },
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		m := fresh[int(which)%len(fresh)]()
		if err := m.ParseBinary(fabric.NewReader(string(data))); err != nil {
			return
		}
		body, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode parsed %T: %v", m, err)
		}
		m2 := fresh[int(which)%len(fresh)]()
		if err := m2.ParseBinary(fabric.NewReader(string(body))); err != nil {
			t.Fatalf("re-parse encoded %T: %v", m, err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("parse/encode not stable:\n got %+v\nwant %+v", m2, m)
		}
		if again, _ := m2.AppendBinary(nil); !bytes.Equal(again, body) {
			t.Fatalf("%T encodes to %x, then to %x", m, body, again)
		}
	})
}

// FuzzItemBodyDecode feeds arbitrary strings to DecodeItemBody, which reads
// what any session participant posts: it must never panic, and any body it
// accepts must re-encode to one that decodes to the same address and
// payload and encodes to the same bytes again.
func FuzzItemBodyDecode(f *testing.F) {
	codec := NewWireCodec()
	for _, tc := range itemMsgs() {
		for _, to := range []string{"", "!host"} {
			body, err := EncodeItemBody(codec, Msg{To: to, Body: tc.msg.Body})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Add("a|\x00")                        // a kind and no body
	f.Add("a|")                            // nothing after the separator
	f.Add("|\x0a\x07")                     // a kind past the table's end
	f.Add("|\x02\x01d\x07")                // a retired kind
	f.Add("|\x07\x01\x00x\x01\x03a|b\x01") // '|' inside the payload
	// The form before the kind table, a tag length and a tag where the kind
	// byte goes: refused, as no kind or as a body the tag's bytes do not fit.
	f.Add("a|\x09crdt/op")
	f.Add("|\x06nope/x\x01d")
	f.Add("|\x0eengine/ot-pull\x03d|x\x07")
	f.Fuzz(func(t *testing.T, body string) {
		to, payload, err := DecodeItemBody(codec, body)
		if err != nil {
			return
		}
		again, err := EncodeItemBody(codec, Msg{To: to, Body: payload})
		if err != nil {
			t.Fatalf("re-encode accepted %q: %v", body, err)
		}
		to2, payload2, err := DecodeItemBody(codec, again)
		if err != nil || to2 != to || !reflect.DeepEqual(payload2, payload) {
			t.Fatalf("re-decode of %x: (%q, %#v, %v), want (%q, %#v)", again, to2, payload2, err, to, payload)
		}
		if third, _ := EncodeItemBody(codec, Msg{To: to2, Body: payload2}); third != again {
			t.Fatalf("%x encodes to %x, then to %x", body, again, third)
		}
	})
}
