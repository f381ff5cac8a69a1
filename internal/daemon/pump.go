package daemon

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
)

// Pump is one site's replica of one document riding the session log as
// "eng/op" items (internal/engine item bodies): item in → decode → addressee
// filter → Apply → encode → post. A participant runs one as its user, posting
// with Client.Post. With Engine crdt that is all: the daemon relays the items
// and never inspects them. With Engine ot the daemon is the authoritative
// integration site: it runs one per document as session.HostAuthor, posting
// the commits back into the log with Host.PostLocal. The lock is held across
// the posts, so a site's items enter the log in the order its replica
// produced them.
type Pump struct {
	self  string
	post  func(body string) error
	codec *fabric.BinaryCodec

	mu  sync.Mutex
	eng engine.Doc
}

func newPump(self string, eng engine.Doc, post func(body string) error) *Pump {
	return &Pump{self: self, eng: eng, post: post, codec: fabric.NewBinaryCodec(engine.NewWireCodec())}
}

// Deliver feeds one logged item to the replica; posted are the bodies it
// answered with. applied is false for what is not this site's to apply: its
// own items, and those addressed to another replica.
func (p *Pump) Deliver(it session.Item) (applied bool, posted []string, err error) {
	if it.Kind != engine.ItemKind || it.From == p.self {
		return false, nil, nil
	}
	to, payload, err := engine.DecodeItemBody(p.codec, it.Body)
	if err != nil {
		return false, nil, fmt.Errorf("bad eng/op from %s: %v", it.From, err)
	}
	if to != "" && to != p.self {
		return false, nil, nil
	}
	posted, err = p.Edit(func(d engine.Doc) ([]engine.Msg, error) {
		out, err := d.Apply(it.From, payload)
		if err != nil {
			err = fmt.Errorf("applying %T from %s: %v", payload, it.From, err)
		}
		return out, err
	})
	return err == nil, posted, err
}

// Edit runs fn (Insert, Delete, Tick — any number of them) on the replica and
// posts the messages it returns, also when fn returns an error with them: an
// edit that failed half-way has still changed the replica.
func (p *Pump) Edit(fn func(engine.Doc) ([]engine.Msg, error)) (posted []string, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	msgs, err := fn(p.eng)
	for _, m := range msgs {
		body, perr := engine.EncodeItemBody(p.codec, m)
		if perr == nil {
			perr = p.post(body)
		}
		if perr != nil {
			return posted, perr
		}
		posted = append(posted, body)
	}
	return posted, err
}

// Text is the replica's text and its count of operations still in flight.
func (p *Pump) Text() (text string, pending int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eng.Text(), p.eng.Pending()
}
