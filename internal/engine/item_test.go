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
	// A submitted op travels without a site and a committed op under its
	// commit's, so each decodes to what was encoded.
	op := ot.Op{Kind: ot.Insert, Pos: 4, Ch: 'ß'}
	c1, c2 := op, op
	c1.Site, c2.Site = "c1", "c2"
	seq := crdt.NewSequence("a")
	seq.Insert(0, 'h')
	seq.Insert(1, 'é')
	seq.Delete(0)
	return []struct {
		name string
		msg  Msg
	}{
		{"ot-submit", Msg{To: "!host", Body: &MsgSubmit{Sub: ot.Submission{Op: op, Base: 9, Seq: 3}}}},
		{"ot-commit", Msg{Body: &MsgCommit{C: ot.Committed{Op: c1, Rev: 10, Site: "c1", Seq: 3}}}},
		{"ot-pull", Msg{To: "!host", Body: &MsgPull{Base: 7}}},
		{"ot-commits", Msg{To: "c2", Body: &MsgCommits{Cs: []ot.Committed{{Op: c1, Rev: 1, Site: "c1", Seq: 1}, {Op: c2, Rev: 2, Site: "c2", Seq: 1}}}}},
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
	if _, err := EncodeItemBody(codec, Msg{To: "a|b", Body: &MsgPull{}}); err == nil {
		t.Fatal("site containing '|' must not encode")
	}
	if _, _, err := DecodeItemBody(codec, "no-separator"); err == nil || !strings.Contains(err.Error(), "separator") {
		t.Fatalf("want separator error, got %v", err)
	}
}

// TestItemBodyUnknownTag: the kind table is the one way in, both ways. A
// kind byte past its end or at a retired entry is an error naming the byte,
// not a nil payload for Apply to trip over later, and a payload whose tag
// has no kind does not encode, even under a codec that registered the tag.
func TestItemBodyUnknownTag(t *testing.T) {
	codec := NewWireCodec()
	for _, kind := range []byte{2, 5, byte(len(itemKinds))} {
		body := fmt.Sprintf("bob|%c\x07", kind)
		if to, payload, err := DecodeItemBody(codec, body); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("kind %q", string(kind))) {
			t.Fatalf("unknown kind %d: got (%q, %#v, %v), want an error naming the kind", kind, to, payload, err)
		}
	}
	fabric.RegisterBase(codec)
	if body, err := EncodeItemBody(codec, Msg{To: "bob", Body: &fabric.Hello{Addr: "x"}}); err == nil || !strings.Contains(err.Error(), "fabric/hello") {
		t.Fatalf("payload with no kind: got (%q, %v), want an error naming its tag", body, err)
	}
}

// TestItemBodyRefusesTaggedForm: a body in an earlier form is refused, never
// parsed as something else. testdata/items-tagged.golden holds the form
// before the kind table, "<to>|<tag length><tag><binary body>": a tag length
// names no kind, or (7, "crdt/op") an OT commit the tag's bytes do not fit.
// testdata/items-sited.golden holds the OT bodies that named their document
// and repeated their site, under kinds the table has since retired.
func TestItemBodyRefusesTaggedForm(t *testing.T) {
	codec := NewWireCodec()
	for _, c := range []struct {
		path, want string
		n          int
	}{
		{"testdata/items-tagged.golden", "", len(itemMsgs())},
		{"testdata/items-sited.golden", "unknown item kind", 4},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != c.n {
			t.Fatalf("%s: %d old bodies, want %d", c.path, len(lines), c.n)
		}
		for _, line := range lines {
			name, hexBody, _ := strings.Cut(line, "\t")
			body, err := hex.DecodeString(hexBody)
			if err != nil {
				t.Fatal(err)
			}
			if to, payload, err := DecodeItemBody(codec, string(body)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %s: old body decoded to (%q, %#v, %v), want an error containing %q", c.path, name, to, payload, err, c.want)
			}
		}
	}
}

// TestShowItemBody pins how logs and cscwctl render items: an eng/op body by
// its address and size, anything else verbatim. ItemTo reads the same
// address.
func TestShowItemBody(t *testing.T) {
	for _, tc := range []struct{ kind, body, want, to string }{
		{ItemKind, "!host|\x00\x01d\x03", "!host|4 bytes", "!host"},
		{ItemKind, "|", "|0 bytes", ""},
		{ItemKind, "\x00\x01", "2 bytes", ""},
		{"chat", "a|b", "a|b", "a"},
	} {
		if got := ShowItemBody(tc.kind, tc.body); got != tc.want {
			t.Errorf("ShowItemBody(%q, %q) = %q, want %q", tc.kind, tc.body, got, tc.want)
		}
		if got := ItemTo(tc.body); got != tc.to {
			t.Errorf("ItemTo(%q) = %q, want %q", tc.body, got, tc.to)
		}
	}
}

// TestItemBodyAllocs pins the per-keystroke cost of a CRDT op. Encode: the
// buffer and the string, or nothing appended into a buffer the caller keeps.
// Decode: the one copy of the binary body and the payload value; every
// string field is a substring of that copy.
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
	buf := make([]byte, 0, len(body))
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendItemBody(buf[:0], codec, m) }); n != 0 || string(buf) != body {
		t.Errorf("AppendItemBody of a crdt op into a kept buffer allocates %v objects and gives %q, want 0 and %q", n, buf, body)
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
