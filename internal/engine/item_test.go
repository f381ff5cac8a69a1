package engine

import (
	"strings"
	"testing"
)

// TestItemBodyRoundTrip: an engine message survives the session-item body
// encoding with its address intact.
func TestItemBodyRoundTrip(t *testing.T) {
	codec := NewWireCodec()
	d, err := New(CRDT, "doc", "alice", "")
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := d.Insert(0, 'x')
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		body, err := EncodeItemBody(codec, m)
		if err != nil {
			t.Fatal(err)
		}
		to, payload, err := DecodeItemBody(codec, body)
		if err != nil {
			t.Fatal(err)
		}
		if to != m.To {
			t.Fatalf("address %q round-tripped to %q", m.To, to)
		}
		r, err := New(CRDT, "doc", "bob", "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Apply("alice", payload); err != nil {
			t.Fatalf("decoded payload rejected: %v", err)
		}
		if r.Text() != "x" {
			t.Fatalf("replica text %q after round-tripped op", r.Text())
		}
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
