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
// (The input itself need not come back: a varint has non-minimal spellings
// the parser reads and the appender never writes.)
func FuzzEngineWireDecode(f *testing.F) {
	op := ot.Op{Kind: ot.Delete, Pos: 3, Ch: 'q', Site: "c1"}
	seeds := []fabric.BinaryAppender{
		MsgSubmit{Doc: "d", Sub: ot.Submission{Op: op, Base: 2, Site: "c1", Seq: 5}},
		MsgCommit{Doc: "d", C: ot.Committed{Op: op, Rev: 3, Site: "c1", Seq: 5}},
		MsgPull{Doc: "d", Base: 8},
		MsgCommits{Doc: "d", Cs: []ot.Committed{{Op: op, Rev: 1, Site: "c1", Seq: 1}, {Op: op, Rev: 2, Site: "c2", Seq: 1}}},
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
		if err := m.ParseBinary(data); err != nil {
			return
		}
		body, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode parsed %T: %v", m, err)
		}
		m2 := fresh[int(which)%len(fresh)]()
		if err := m2.ParseBinary(body); err != nil {
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
