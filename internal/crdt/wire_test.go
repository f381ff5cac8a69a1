package crdt

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
)

// wireCodec is a codec that knows the CRDT wire messages.
func wireCodec() *fabric.Codec {
	c := fabric.NewCodec()
	RegisterWire(c)
	return c
}

func roundTrip(t *testing.T, codec *fabric.Codec, msg any) any {
	t.Helper()
	data, err := codec.Encode(msg)
	if err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	out, err := codec.Decode(data)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return out
}

func sampleState(t *testing.T) *SeqState {
	t.Helper()
	seq := NewSequence("a")
	for i, ch := range "state" {
		if _, err := seq.Insert(i, ch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := seq.Delete(1); err != nil {
		t.Fatal(err)
	}
	return seq.State()
}

// TestWireRoundTrip: sequence ops and states come back from the codec as
// they went in; an op of any other kind, the retired set and counter kinds
// included, and a state message without a state are refused at encode.
func TestWireRoundTrip(t *testing.T) {
	codec := wireCodec()
	msgs := []any{
		&MsgOp{Doc: "d1", Op: Op{Kind: OpSeqInsert, Site: "a", Seq: 3, ID: ID{N: 7, Site: "a"}, After: ID{N: 2, Site: "b"}, Ch: 'é'}},
		&MsgOp{Op: Op{Kind: OpSeqDelete, Site: "b", Seq: 4, ID: ID{N: 7, Site: "a"}}},
		&MsgState{Doc: "d2", Seq: sampleState(t)},
	}
	for _, msg := range msgs {
		if out := roundTrip(t, codec, msg); !reflect.DeepEqual(out, msg) {
			t.Errorf("round trip of %T changed the message:\n got %+v\nwant %+v", msg, out, msg)
		}
	}
	for _, msg := range []any{
		&MsgOp{Doc: "d1", Op: Op{Kind: 4, Site: "b", Seq: 9}},
		&MsgOp{Op: Op{Kind: 5, Site: "c", Seq: 1}},
		&MsgOp{Op: Op{Site: "a", Seq: 1}},
		&MsgState{Doc: "d2"},
	} {
		if data, err := codec.Encode(msg); err == nil {
			t.Errorf("%+v encoded to %x, want it refused", msg, data)
		}
	}
}

func TestWireBinaryDeterministicBytes(t *testing.T) {
	// Equal states must encode to identical bytes regardless of the map
	// insertion history: the version vector is written in site order.
	codec := wireCodec()
	a, b, c := NewSequence("s1"), NewSequence("s2"), NewSequence("s3")
	opX, err := a.Insert(0, 'x')
	if err != nil {
		t.Fatal(err)
	}
	opY, err := b.Insert(0, 'y')
	if err != nil {
		t.Fatal(err)
	}
	// a and c learn the other ops in opposite orders.
	for _, step := range []struct {
		s  *Sequence
		op Op
	}{{a, opY}, {c, opY}, {c, opX}} {
		if err := step.s.Apply(step.op); err != nil {
			t.Fatal(err)
		}
	}
	ea, err := codec.Encode(&MsgState{Doc: "d", Seq: a.State()})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := codec.Encode(&MsgState{Doc: "d", Seq: c.State()})
	if err != nil {
		t.Fatal(err)
	}
	if string(ea) != string(eb) {
		t.Fatalf("equal states encoded differently:\n%x\n%x", ea, eb)
	}
}

func TestMsgStateRejectsEmptyAndTrailing(t *testing.T) {
	if _, err := (MsgState{Doc: "d"}).AppendBinary(nil); err == nil {
		t.Fatal("empty state message encoded")
	}
	var m MsgOp
	body, err := MsgOp{Doc: "d", Op: Op{Kind: OpSeqInsert, Site: "a", Seq: 1, ID: ID{N: 1, Site: "a"}, Ch: 'x'}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ParseBinary(fabric.NewReader(string(append(body, 0xff)))); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
