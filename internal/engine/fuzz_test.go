package engine

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/crdt"
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

// serverSenders are the sites FuzzServerIntegrate's records post as: two
// clients, the server itself, and a site whose name cannot address an item
// body, so a pull's answer to it is an encoding error.
var serverSenders = []string{"p1", "p2", "!host", "p|3"}

// serverScript renders (sender, item body) pairs as FuzzServerIntegrate
// reads them: one byte indexing serverSenders, one length byte, the body.
func serverScript(pairs ...struct{ from, body string }) []byte {
	var out []byte
	for _, p := range pairs {
		out = append(out, byte(slices.Index(serverSenders, p.from)), byte(len(p.body)))
		out = append(out, p.body...)
	}
	return out
}

// FuzzServerIntegrate is a differential check of the daemon's integration
// site: every (sender, item body) pair of the input goes both to
// Server.Integrate and down the boxed path a Pump takes, the addressee
// filter, DecodeItemBody, the server replica's Apply and EncodeItemBody.
// Both must answer with the same bytes, fail on the same pairs and hold the
// same text after each.
func FuzzServerIntegrate(f *testing.F) {
	const server = "!host"
	codec := NewWireCodec()
	body := func(m Msg) string {
		b, err := EncodeItemBody(codec, m)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	sub := func(kind ot.Kind, pos, base int, seq uint64) string {
		return body(Msg{To: server, Body: &MsgSubmit{Sub: ot.Submission{Op: ot.Op{Kind: kind, Pos: pos, Ch: 'x'}, Base: base, Seq: seq}}})
	}
	pull := func(base int) string { return body(Msg{To: server, Body: &MsgPull{Base: base}}) }
	commit := ot.Committed{Op: ot.Op{Kind: ot.Insert, Ch: 'x', Site: "p1"}, Rev: 1, Site: "p1", Seq: 1}
	type pair = struct{ from, body string }
	for _, script := range [][]pair{
		{ // current, stale and future bases; a resend; pulls with and without news
			{"p1", sub(ot.Insert, 0, 0, 1)},
			{"p2", sub(ot.Insert, 0, 0, 1)},
			{"p1", sub(ot.Insert, 0, 0, 1)},
			{"p1", sub(ot.Insert, 1, 7, 2)},
			{"p2", pull(0)},
			{"p2", pull(2)},
			{"p1", sub(ot.Delete, 0, 2, 2)},
		},
		{ // commits, which the server already has, from a client and from itself
			{"p1", body(Msg{Body: &MsgCommit{C: commit}})},
			{server, body(Msg{Body: &MsgCommits{Cs: []ot.Committed{commit}}})},
			{"p2", sub(ot.Delete, 0, 0, 1)}, // a delete in an empty document
		},
		{ // a CRDT op; a body for another site; a pull answered to an unaddressable site
			{"p1", body(Msg{Body: &crdt.MsgOp{Doc: "d", Op: crdt.Op{Kind: crdt.OpSeqInsert, Site: "p1", Seq: 1, ID: crdt.ID{N: 1, Site: "p1"}, Ch: 'x'}}})},
			{"p1", "p2|" + sub(ot.Insert, 0, 0, 1)[len(server)+1:]},
			{"p|3", sub(ot.Insert, 0, 0, 1)},
			{"p|3", pull(0)},
		},
		{ // no separator, an unknown kind, a retired kind, a truncated submission
			{"p1", "p1"},
			{"p1", "|\x0a\x07"},
			{"p1", "|\x02\x01d\x07"},
			{"p1", sub(ot.Insert, 0, 0, 1)[:len(server)+4]},
			{"p1", server + "|"},
		},
	} {
		f.Add(serverScript(script...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("long scripts test nothing short ones do not")
		}
		srv := NewServer(server)
		doc, err := New(OT, "doc", server, server)
		if err != nil {
			t.Fatal(err)
		}
		var buf []byte
		for step := 0; len(data) >= 2; step++ {
			from, n := serverSenders[int(data[0])%len(serverSenders)], min(int(data[1]), len(data)-2)
			body := string(data[2 : 2+n])
			data = data[2+n:]

			var gotErr error
			buf, gotErr = srv.Integrate(from, body, buf[:0])
			want, wantErr := boxedIntegrate(codec, doc, server, from, body)
			if (gotErr != nil) != (wantErr != nil) || string(buf) != want {
				t.Fatalf("step %d, %q from %s: Integrate gave %x, %v; the boxed path %x, %v", step, body, from, buf, gotErr, want, wantErr)
			}
			if srv.Text() != doc.Text() {
				t.Fatalf("step %d: Integrate holds %q, the boxed path %q", step, srv.Text(), doc.Text())
			}
		}
	})
}

// boxedIntegrate is what a Pump at the server site does with an item body:
// skip one addressed to another site, decode it, Apply it and encode what
// Apply returns.
func boxedIntegrate(codec *fabric.Codec, doc Doc, self, from, body string) (string, error) {
	if to := ItemTo(body); to != "" && to != self {
		return "", nil
	}
	_, payload, err := DecodeItemBody(codec, body)
	if err != nil {
		return "", err
	}
	out, err := doc.Apply(from, payload)
	if err != nil {
		return "", err
	}
	var answer string
	for _, m := range out {
		b, err := EncodeItemBody(codec, m)
		if err != nil {
			return "", err
		}
		answer += b
	}
	return answer, nil
}
