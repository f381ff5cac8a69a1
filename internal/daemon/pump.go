package daemon

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
)

// Pump is one participant's replica of one document riding the session log
// as "eng/op" items (internal/engine item bodies): item in → addressee filter
// → decode → Apply → encode → post with Client.Post. With Engine crdt that is
// all: the daemon relays the items and never inspects them. With Engine ot
// the daemon is the integration site, and it runs no Pump: NewHost hands
// each submission's body to an engine.Server, which answers with the commit's
// body. The lock is held across the posts, so a site's items enter the log
// in the order its replica produced them.
type Pump struct {
	self  string
	post  func(body string) error
	codec *fabric.Codec

	mu  sync.Mutex
	eng engine.Doc
	buf []byte // Edit encodes each body here before posting its string
}

func newPump(self string, eng engine.Doc, post func(body string) error) *Pump {
	return &Pump{self: self, eng: eng, post: post, codec: engine.NewWireCodec()}
}

// Deliver feeds one logged item to the replica and posts what it answers
// with. applied is false for what is not this site's to apply: its own
// items, and those addressed to another replica.
func (p *Pump) Deliver(it session.Item) (applied bool, err error) {
	if it.Kind != engine.ItemKind || it.From == p.self {
		return false, nil
	}
	// The address comes first, so an item for another site (every OT
	// submission, at a participant) is skipped before it is decoded.
	if to := engine.ItemTo(it.Body); to != "" && to != p.self {
		return false, nil
	}
	_, payload, err := engine.DecodeItemBody(p.codec, it.Body)
	if err != nil {
		return false, fmt.Errorf("bad eng/op from %s: %v", it.From, err)
	}
	err = p.Edit(func(d engine.Doc) ([]engine.Msg, error) {
		out, err := d.Apply(it.From, payload)
		if err != nil {
			return out, fmt.Errorf("applying %T from %s: %v", payload, it.From, err)
		}
		return out, nil
	})
	return err == nil, err
}

// Edit runs fn (Insert, Delete, Tick — any number of them) on the replica and
// posts the messages it returns, also when fn returns an error with them: an
// edit that failed half-way has still changed the replica.
func (p *Pump) Edit(fn func(engine.Doc) ([]engine.Msg, error)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	msgs, err := fn(p.eng)
	for _, m := range msgs {
		var perr error
		if p.buf, perr = engine.AppendItemBody(p.buf[:0], p.codec, m); perr != nil {
			return perr
		}
		if perr = p.post(string(p.buf)); perr != nil {
			return perr
		}
	}
	return err
}

// Text is the replica's text and its count of operations still in flight.
func (p *Pump) Text() (text string, pending int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eng.Text(), p.eng.Pending()
}
