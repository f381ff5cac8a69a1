package engine

import (
	"strings"
	"testing"

	"repro/internal/crdt"
	"repro/internal/ot"
)

// TestDocsRefuseBadEdits: an edit at a position the document does not have
// fails at either engine's replica and sends nothing.
func TestDocsRefuseBadEdits(t *testing.T) {
	for _, kind := range []string{CRDT, OT} {
		d := buildDocs(t, kind, "srv", "c1")[1]
		if msgs, err := d.Insert(5, 'x'); err == nil || msgs != nil {
			t.Errorf("%s: Insert past the end = (%v, %v)", kind, msgs, err)
		}
		if msgs, err := d.Delete(0); err == nil || msgs != nil {
			t.Errorf("%s: Delete of an empty document = (%v, %v)", kind, msgs, err)
		}
	}
}

// TestOTClientRefusesServerTraffic: a client is no integration site, so a
// submission or a pull sent to it is an error; commits from anyone but the
// server are dropped; a commit the client cannot apply is an error.
func TestOTClientRefusesServerTraffic(t *testing.T) {
	c := buildDocs(t, OT, "srv", "c1")[1]
	if _, err := c.Apply("c2", &MsgSubmit{Sub: ot.Submission{Op: ot.Op{Kind: ot.Insert, Ch: 'x'}, Seq: 1}}); err == nil || !strings.Contains(err.Error(), "submission sent to non-server site c1") {
		t.Errorf("submission at a client = %v", err)
	}
	if _, err := c.Apply("c2", &MsgPull{}); err == nil || !strings.Contains(err.Error(), "pull sent to non-server site c1") {
		t.Errorf("pull at a client = %v", err)
	}
	forged := []ot.Committed{{Op: ot.Op{Kind: ot.Insert, Ch: 'z', Site: "c2"}, Rev: 1, Site: "c2", Seq: 1}}
	if msgs, err := c.Apply("c2", &MsgCommits{Cs: forged}); msgs != nil || err != nil || c.Text() != "" {
		t.Errorf("commits from a client = (%v, %v), text %q", msgs, err, c.Text())
	}
	bad := []ot.Committed{{Op: ot.Op{Kind: ot.Delete, Pos: 3, Site: "c2"}, Rev: 1, Site: "c2", Seq: 1}}
	if _, err := c.Apply("srv", &MsgCommits{Cs: bad}); err == nil {
		t.Errorf("a commit deleting past the end applied: text %q", c.Text())
	}
}

// TestServerIntegrateRefusals: a body addressed to another site is not the
// server's (answered with nothing, undecoded); a submission the server
// refuses is an error and appends nothing.
func TestServerIntegrateRefusals(t *testing.T) {
	codec := NewWireCodec()
	srv := NewServer("!host")
	other, err := EncodeItemBody(codec, Msg{To: "p2", Body: &MsgPull{}})
	if err != nil {
		t.Fatal(err)
	}
	if answer, err := srv.Integrate("p1", other, nil); answer != nil || err != nil {
		t.Errorf("a body for p2 = (%x, %v), want nothing", answer, err)
	}
	stale, err := EncodeItemBody(codec, Msg{To: "!host", Body: &MsgSubmit{Sub: ot.Submission{Op: ot.Op{Kind: ot.Insert, Ch: 'x'}, Base: 4, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if answer, err := srv.Integrate("p1", stale, nil); answer != nil || err == nil {
		t.Errorf("a submission past the server's revision = (%x, %v), want an error", answer, err)
	}
	pull, err := EncodeItemBody(codec, Msg{To: "!host", Body: &MsgPull{Base: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if answer, err := srv.Integrate("p1", pull+"\x00", nil); answer != nil || err == nil {
		t.Errorf("a pull with a trailing byte = (%x, %v), want an error", answer, err)
	}
}

// TestItemBodyRefusesUnencodable: a payload the codec has no tag for, or
// one whose binary body refuses it, does not encode.
func TestItemBodyRefusesUnencodable(t *testing.T) {
	codec := NewWireCodec()
	if body, err := EncodeItemBody(codec, Msg{Body: "plain text"}); err == nil {
		t.Errorf("an unregistered payload encoded to %q", body)
	}
	unknown := &crdt.MsgOp{Doc: "d", Op: crdt.Op{Kind: crdt.OpSeqDelete + 1, Site: "a", Seq: 1}}
	if body, err := EncodeItemBody(codec, Msg{Body: unknown}); err == nil || !strings.Contains(err.Error(), "encode crdt/op item body") {
		t.Errorf("an op of an unknown kind encoded to (%q, %v)", body, err)
	}
}
