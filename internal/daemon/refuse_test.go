package daemon

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ot"
	"repro/internal/session"
)

// TestEdgeRefusals: a host core on a bad configuration, a daemon whose
// address cannot be bound, a participant whose id no frame can carry and
// a join with no daemon to reach are each an error.
func TestEdgeRefusals(t *testing.T) {
	bad := hostConfig(engine.CRDT)
	bad.Mode = "asnyc"
	if h, err := NewHost(nullEndpoint{}, func() time.Duration { return 0 }, bad); h != nil || err == nil {
		t.Errorf("NewHost with a bad mode = (%v, %v)", h, err)
	}
	unbindable := hostConfig(engine.CRDT)
	unbindable.Listen = "127.0.0.1:-1"
	if d, err := New(unbindable); d != nil || err == nil || !strings.Contains(err.Error(), "listen 127.0.0.1:-1") {
		t.Errorf("New on an unbindable address = (%v, %v)", d, err)
	}
	if p, err := Dial(Config{User: strings.Repeat("u", 1<<16), Host: "127.0.0.1:1"}); p != nil || err == nil {
		t.Errorf("Dial as a 64 KiB user = (%v, %v)", p, err)
	}
	p, err := Dial(Config{User: "u", Host: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Join(time.Second); err == nil || !strings.Contains(err.Error(), "reach sessiond at 127.0.0.1:1") {
		t.Errorf("Join with no daemon listening = %v", err)
	}
}

// TestBadEngineItemsRefused: an eng/op body that does not parse, or that
// the replica refuses, is an error at a participant's pump and posts
// nothing; at the OT daemon it is logged and answered with nothing.
func TestBadEngineItemsRefused(t *testing.T) {
	eng, err := engine.New(engine.OT, "doc", "p1", session.HostAuthor)
	if err != nil {
		t.Fatal(err)
	}
	p := newPump("p1", eng, func(string) error { t.Error("the pump posted"); return nil })
	garbage := session.Item{Seq: 1, From: "p2", Kind: engine.ItemKind, Body: "|\xff"}
	if applied, err := p.Deliver(garbage); applied || err == nil || !strings.Contains(err.Error(), "bad eng/op from p2") {
		t.Errorf("Deliver of an unparsable body = %v, %v", applied, err)
	}
	sub, err := engine.EncodeItemBody(engine.NewWireCodec(), engine.Msg{To: "p1", Body: &engine.MsgSubmit{Sub: ot.Submission{Op: ot.Op{Kind: ot.Insert, Ch: 'x'}, Seq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := p.Deliver(session.Item{Seq: 2, From: "p2", Kind: engine.ItemKind, Body: sub}); applied || err == nil || !strings.Contains(err.Error(), "applying *engine.MsgSubmit from p2") {
		t.Errorf("Deliver of a submission to a participant = %v, %v", applied, err)
	}

	site := &otSite{srv: engine.NewServer(session.HostAuthor), post: func(string) { t.Error("the site posted") }}
	if answer := site.integrate(garbage); answer != "" {
		t.Errorf("the site answered an unparsable body with %q", answer)
	}
}

// TestPumpEditRefusals: a message the item body cannot carry, or a post
// that fails, ends the edit with that error.
func TestPumpEditRefusals(t *testing.T) {
	eng, err := engine.New(engine.CRDT, "doc", "p1", "")
	if err != nil {
		t.Fatal(err)
	}
	p := newPump("p1", eng, func(string) error { return nil })
	if err := p.Edit(func(engine.Doc) ([]engine.Msg, error) { return []engine.Msg{{Body: "text"}}, nil }); err == nil {
		t.Error("an unencodable message was posted")
	}
	down := errors.New("connection lost")
	p = newPump("p1", eng, func(string) error { return down })
	if err := p.Edit(func(d engine.Doc) ([]engine.Msg, error) { return d.Insert(0, 'x') }); !errors.Is(err, down) {
		t.Errorf("Edit with a failing post = %v, want %v", err, down)
	}
}
