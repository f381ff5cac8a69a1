package crdt

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
)

// byteScript doles out fuzz bytes as small typed values; exhausted input
// yields zeros so every prefix is a valid script.
type byteScript struct {
	data []byte
	at   int
}

func (s *byteScript) byte() byte {
	if s.at >= len(s.data) {
		return 0
	}
	b := s.data[s.at]
	s.at++
	return b
}

func (s *byteScript) u64() uint64 {
	var v uint64
	for i := 0; i < 4; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

func (s *byteScript) str() string {
	n := int(s.byte() % 8)
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.byte())
	}
	return string(out)
}

func (s *byteScript) done() bool { return s.at >= len(s.data) }

// FuzzOpWireRoundTrip builds an arbitrary op message from the input bytes
// and requires the binary codec to reproduce it exactly.
func FuzzOpWireRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 'a', 3, 0, 0, 0, 7, 'x', 'y', 255, 128, 9})
	f.Add([]byte{4, 1, 'b', 0, 0, 0, 1, 'e', 'l', 'e', 'm', 2, 9, 'a', 8, 'b'})
	codec := wireCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteScript{data: data}
		msg := &MsgOp{
			Doc: s.str(),
			Op: Op{
				Kind:  OpKind(s.byte()),
				Site:  s.str(),
				Seq:   s.u64(),
				ID:    ID{N: s.u64(), Site: s.str()},
				After: ID{N: s.u64(), Site: s.str()},
				Ch:    rune(uint32(s.u64())),
				Elem:  s.str(),
				Delta: int64(s.u64()) - int64(s.u64()),
			},
		}
		for n := int(s.byte() % 5); n > 0; n-- {
			msg.Op.Dots = append(msg.Op.Dots, ID{N: s.u64(), Site: s.str()})
		}
		enc, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		out, err := codec.Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(out, msg) {
			t.Fatalf("round trip changed message:\n got %+v\nwant %+v", out, msg)
		}
	})
}

// FuzzWireDecode feeds arbitrary bytes to the binary body parsers: they
// must never panic, and anything they accept must re-encode to a body that
// parses back to the same message (parse∘encode is the identity on parsed
// messages).
func FuzzWireDecode(f *testing.F) {
	seedOp, _ := MsgOp{Doc: "d", Op: Op{Kind: OpSeqInsert, Site: "a", Seq: 1, ID: ID{N: 1, Site: "a"}, Ch: 'x'}}.AppendBinary(nil)
	f.Add(true, seedOp)
	seq := NewSequence("a")
	if _, err := seq.Insert(0, 'q'); err != nil {
		f.Fatal(err)
	}
	seedState, _ := MsgState{Doc: "d", Seq: seq.State()}.AppendBinary(nil)
	f.Add(false, seedState)
	f.Add(false, []byte{0, 1})
	f.Fuzz(func(t *testing.T, asOp bool, data []byte) {
		if asOp {
			var m MsgOp
			if err := m.ParseBinary(fabric.NewReader(string(data))); err != nil {
				return
			}
			body, err := m.AppendBinary(nil)
			if err != nil {
				t.Fatalf("re-encode parsed op: %v", err)
			}
			var m2 MsgOp
			if err := m2.ParseBinary(fabric.NewReader(string(body))); err != nil {
				t.Fatalf("re-parse encoded op: %v", err)
			}
			if !reflect.DeepEqual(m2, m) {
				t.Fatalf("parse/encode not stable:\n got %+v\nwant %+v", m2, m)
			}
			return
		}
		var m MsgState
		if err := m.ParseBinary(fabric.NewReader(string(data))); err != nil {
			return
		}
		body, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode parsed state: %v", err)
		}
		var m2 MsgState
		if err := m2.ParseBinary(fabric.NewReader(string(body))); err != nil {
			t.Fatalf("re-parse encoded state: %v", err)
		}
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("parse/encode not stable:\n got %+v\nwant %+v", m2, m)
		}
	})
}

// FuzzMergeConvergence drives three replicas of each CRDT with an
// arbitrary op script and two adversarial delivery interleavings (in
// order, reversed, plus duplicates), then cross-merges snapshots; every
// replica must converge to identical state.
func FuzzMergeConvergence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 251, 252, 9, 9, 9})
	f.Add([]byte{7, 130, 14, 200, 3, 77, 77, 0, 255, 16, 32, 64, 128, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteScript{data: data}
		seqs := [3]*Sequence{NewSequence("a"), NewSequence("b"), NewSequence("c")}
		sets := [3]*Set{NewSet("a"), NewSet("b"), NewSet("c")}
		ctrs := [3]*Counter{NewCounter("a"), NewCounter("b"), NewCounter("c")}
		universe := []string{"u", "v", "w"}
		type origin struct {
			op   Op
			site int
		}
		var log []origin
		for i := 0; i < 64 && !s.done(); i++ {
			site := int(s.byte()) % 3
			arg := int(s.byte())
			switch s.byte() % 5 {
			case 0:
				op, err := seqs[site].Insert(arg%(seqs[site].Len()+1), rune('a'+arg%26))
				if err != nil {
					t.Fatal(err)
				}
				log = append(log, origin{op, site})
			case 1:
				if seqs[site].Len() > 0 {
					op, err := seqs[site].Delete(arg % seqs[site].Len())
					if err != nil {
						t.Fatal(err)
					}
					log = append(log, origin{op, site})
				}
			case 2:
				log = append(log, origin{sets[site].Add(universe[arg%3]), site})
			case 3:
				log = append(log, origin{sets[site].Remove(universe[arg%3]), site})
			case 4:
				log = append(log, origin{ctrs[site].Add(int64(arg) - 128), site})
			}
		}
		apply := func(to int, op Op) {
			var err error
			switch op.Kind {
			case OpSeqInsert, OpSeqDelete:
				err = seqs[to].Apply(op)
			case OpSetAdd, OpSetRemove:
				err = sets[to].Apply(op)
			case OpCtrAdd:
				err = ctrs[to].Apply(op)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		// Replica 1 hears the log forward, replica 2 reversed; the ops a
		// replica issued itself arrive again as duplicates.
		for _, o := range log {
			apply(1, o.op)
		}
		for i := len(log) - 1; i >= 0; i-- {
			apply(2, log[i].op)
		}
		// Replica 0 receives nothing op-wise: it converges purely by state
		// merge from the other two.
		if err := seqs[0].MergeState(seqs[1].State()); err != nil {
			t.Fatal(err)
		}
		if err := seqs[0].MergeState(seqs[2].State()); err != nil {
			t.Fatal(err)
		}
		sets[0].MergeState(sets[1].State())
		sets[0].MergeState(sets[2].State())
		ctrs[0].MergeState(ctrs[1].State())
		ctrs[0].MergeState(ctrs[2].State())
		// And the op-fed replicas cross-merge to pick up replica 0's edits.
		for _, i := range []int{1, 2} {
			if err := seqs[i].MergeState(seqs[0].State()); err != nil {
				t.Fatal(err)
			}
			sets[i].MergeState(sets[0].State())
			ctrs[i].MergeState(ctrs[0].State())
		}
		for i := 1; i < 3; i++ {
			if seqs[i].Text() != seqs[0].Text() {
				t.Fatalf("sequence replica %d diverged: %q vs %q", i, seqs[i].Text(), seqs[0].Text())
			}
			if !reflect.DeepEqual(sets[i].Elements(), sets[0].Elements()) {
				t.Fatalf("set replica %d diverged: %v vs %v", i, sets[i].Elements(), sets[0].Elements())
			}
			if ctrs[i].Value() != ctrs[0].Value() {
				t.Fatalf("counter replica %d diverged: %d vs %d", i, ctrs[i].Value(), ctrs[0].Value())
			}
		}
	})
}
