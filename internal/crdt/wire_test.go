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

func sampleStates(t *testing.T) (*SeqState, *SetState, *CtrState) {
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
	set := NewSet("b")
	set.Add("x")
	set.Add("y")
	set.Remove("x")
	ctr := NewCounter("c")
	ctr.Add(41)
	ctr.Add(-4)
	return seq.State(), set.State(), ctr.State()
}

func TestWireRoundTrip(t *testing.T) {
	codec := wireCodec()
	seqSt, setSt, ctrSt := sampleStates(t)
	msgs := []any{
		&MsgOp{Doc: "d1", Op: Op{Kind: OpSeqInsert, Site: "a", Seq: 3, ID: ID{N: 7, Site: "a"}, After: ID{N: 2, Site: "b"}, Ch: 'é'}},
		&MsgOp{Doc: "d1", Op: Op{Kind: OpSetRemove, Site: "b", Seq: 9, Elem: "doc", Dots: []ID{{N: 1, Site: "a"}, {N: 4, Site: "b"}}}},
		&MsgOp{Op: Op{Kind: OpCtrAdd, Site: "c", Seq: 1, Delta: -77}},
		&MsgState{Doc: "d2", Seq: seqSt},
		&MsgState{Doc: "d2", Set: setSt},
		&MsgState{Doc: "d2", Ctr: ctrSt},
	}
	for _, msg := range msgs {
		if out := roundTrip(t, codec, msg); !reflect.DeepEqual(out, msg) {
			t.Errorf("round trip of %T changed the message:\n got %+v\nwant %+v", msg, out, msg)
		}
	}
}

func TestWireBinaryDeterministicBytes(t *testing.T) {
	// Equal states must encode to identical bytes regardless of the map
	// insertion history — chaos invariants and the fuzzers compare
	// encodings directly.
	codec := wireCodec()
	a, b := NewSet("s1"), NewSet("s2")
	opX := a.Add("x")
	opY := a.Add("y")
	// b learns the same ops in the opposite order (held, then drained).
	if err := b.Apply(opY); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(opX); err != nil {
		t.Fatal(err)
	}
	ea, err := codec.Encode(&MsgState{Doc: "d", Set: a.State()})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := codec.Encode(&MsgState{Doc: "d", Set: b.State()})
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
	body, err := MsgOp{Doc: "d", Op: Op{Kind: OpCtrAdd, Site: "a", Seq: 1, Delta: 5}}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ParseBinary(fabric.NewReader(string(append(body, 0xff)))); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
