package engine

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/crdt"
	"repro/internal/fabric"
	"repro/internal/ot"
)

var update = flag.Bool("update", false, "rewrite testdata/items.golden")

// itemMsgs is one instance of every message either engine emits, each with
// the address it travels under in a live session: submissions and pulls go
// to the OT server site, commits and CRDT traffic to every replica, pulled
// commits back to the one client that asked.
func itemMsgs() []struct {
	name string
	msg  Msg
} {
	op := ot.Op{Kind: ot.Insert, Pos: 4, Ch: 'ß', Site: "c1"}
	seq := crdt.NewSequence("a")
	seq.Insert(0, 'h')
	seq.Insert(1, 'é')
	seq.Delete(0)
	return []struct {
		name string
		msg  Msg
	}{
		{"ot-submit", Msg{To: "!host", Body: &MsgSubmit{Doc: "d", Sub: ot.Submission{Op: op, Base: 9, Site: "c1", Seq: 3}}}},
		{"ot-commit", Msg{Body: &MsgCommit{Doc: "d", C: ot.Committed{Op: op, Rev: 10, Site: "c1", Seq: 3}}}},
		{"ot-pull", Msg{To: "!host", Body: &MsgPull{Doc: "d", Base: 7}}},
		{"ot-commits", Msg{To: "c2", Body: &MsgCommits{Doc: "d", Cs: []ot.Committed{{Op: op, Rev: 1, Site: "c1", Seq: 1}, {Op: op, Rev: 2, Site: "c2", Seq: 1}}}}},
		{"crdt-op", Msg{Body: &crdt.MsgOp{Doc: "d", Op: crdt.Op{Kind: crdt.OpSeqInsert, Site: "alice", Seq: 4, ID: crdt.ID{N: 4, Site: "alice"}, After: crdt.ID{N: 3, Site: "bob"}, Ch: 'x'}}}},
		{"crdt-state", Msg{Body: &crdt.MsgState{Doc: "d", Seq: seq.State()}}},
	}
}

// TestItemBodyRoundTrip: every engine message survives the session-item body
// encoding with its address intact, and its body is the one pinned in hex in
// testdata/items.golden. A diff there moves wire_bytes_per_op on every
// sessiond engine workload, and a peer built from an older tree stops
// understanding this one.
func TestItemBodyRoundTrip(t *testing.T) {
	codec := NewWireCodec()
	var b strings.Builder
	for _, tc := range itemMsgs() {
		body, err := EncodeItemBody(codec, tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&b, "%s\t%s\n", tc.name, hex.EncodeToString([]byte(body)))
		to, payload, err := DecodeItemBody(codec, body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if to != tc.msg.To {
			t.Errorf("%s: address %q round-tripped to %q", tc.name, tc.msg.To, to)
		}
		if !reflect.DeepEqual(payload, tc.msg.Body) {
			t.Errorf("%s: round trip gave %#v, want %#v", tc.name, payload, tc.msg.Body)
		}
	}
	const path = "testdata/items.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("item bodies differ from %s (rerun with -update and read the diff):\n got:\n%s\nwant:\n%s", path, b.String(), want)
	}
}

// TestItemBodyApplies: a decoded op is one a fresh replica applies.
func TestItemBodyApplies(t *testing.T) {
	codec := NewWireCodec()
	d, err := New(CRDT, "doc", "alice", "")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := d.Insert(0, 'x')
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(CRDT, "doc", "bob", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		body, err := EncodeItemBody(codec, m)
		if err != nil {
			t.Fatal(err)
		}
		_, payload, err := DecodeItemBody(codec, body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Apply("alice", payload); err != nil {
			t.Fatalf("decoded payload rejected: %v", err)
		}
	}
	if r.Text() != "x" {
		t.Fatalf("replica text %q after round-tripped op", r.Text())
	}
}

func TestItemBodyRejectsSeparatorInSite(t *testing.T) {
	codec := NewWireCodec()
	if _, err := EncodeItemBody(codec, Msg{To: "a|b", Body: &MsgPull{Doc: "d"}}); err == nil {
		t.Fatal("site containing '|' must not encode")
	}
	if _, _, err := DecodeItemBody(codec, "no-separator"); err == nil || !strings.Contains(err.Error(), "separator") {
		t.Fatalf("want separator error, got %v", err)
	}
}

// TestItemBodyUnknownTag: a payload under a tag no engine registered is an
// error naming the tag, not a nil payload for Apply to trip over later.
func TestItemBodyUnknownTag(t *testing.T) {
	other := fabric.NewCodec()
	fabric.RegisterBase(other)
	body, err := EncodeItemBody(other, Msg{To: "bob", Body: &fabric.Hello{Addr: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	to, payload, err := DecodeItemBody(NewWireCodec(), body)
	if err == nil || !strings.Contains(err.Error(), `"fabric/hello"`) {
		t.Fatalf("unknown tag: got (%q, %#v, %v), want an error naming the tag", to, payload, err)
	}
}

// TestShowItemBody pins how logs and cscwctl render items: an eng/op body by
// its address and size, anything else verbatim.
func TestShowItemBody(t *testing.T) {
	for _, tc := range []struct{ kind, body, want string }{
		{ItemKind, "!host|\x07crdt/op\x01\x02\x03", "!host|11 bytes"},
		{ItemKind, "|", "|0 bytes"},
		{ItemKind, "\x00\x01", "2 bytes"},
		{"chat", "a|b", "a|b"},
	} {
		if got := ShowItemBody(tc.kind, tc.body); got != tc.want {
			t.Errorf("ShowItemBody(%q, %q) = %q, want %q", tc.kind, tc.body, got, tc.want)
		}
	}
}

// TestItemBodyAllocs pins the per-keystroke cost of a CRDT op. Encode: the
// buffer and the string. Decode: the one copy of the tagged body and the
// payload value; every string field is a substring of that copy.
func TestItemBodyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	codec := NewWireCodec()
	m := itemMsgs()[4].msg
	body, err := EncodeItemBody(codec, m)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = EncodeItemBody(codec, m) }); n != 2 {
		t.Errorf("EncodeItemBody of a crdt op allocates %v objects, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _ = DecodeItemBody(codec, body) }); n != 2 {
		t.Errorf("DecodeItemBody of a crdt op allocates %v objects, want 2", n)
	}
}

// TestDecodedOpsPinNoBodies: a replica keeps nothing of the item bodies its
// ops were decoded from. A decoded op's Site is a substring of the string
// it was parsed from, and the body here is padded by a 1 KiB Doc, so an
// element that kept its Site as it came would keep over a kilobyte alive;
// per op, the replica must retain no more than its own element and index
// entry.
func TestDecodedOpsPinNoBodies(t *testing.T) {
	const ops = 20000
	const maxPerOp = 200 // bytes
	codec := NewWireCodec()
	doc := strings.Repeat("d", 1<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := New(CRDT, doc, "r", "")
	if err != nil {
		t.Fatal(err)
	}
	var prev crdt.ID
	for i := uint64(1); i <= ops; i++ {
		id := crdt.ID{N: i, Site: "w"}
		op := crdt.Op{Kind: crdt.OpSeqInsert, Site: "w", Seq: i, ID: id, After: prev, Ch: 'x'}
		prev = id
		body, err := EncodeItemBody(codec, Msg{Body: &crdt.MsgOp{Doc: doc, Op: op}})
		if err != nil {
			t.Fatal(err)
		}
		_, payload, err := DecodeItemBody(codec, body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Apply("w", payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(d.Text()); n != ops {
		t.Fatalf("replica holds %d elements, want %d", n, ops)
	}
	perOp := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / ops
	t.Logf("retained %d B per op", perOp)
	if perOp > maxPerOp {
		t.Errorf("replica retains %d B per integrated op, want at most %d: decoded ops pin their bodies", perOp, maxPerOp)
	}
	runtime.KeepAlive(d)
}
