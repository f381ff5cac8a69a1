package session

import (
	"sort"
	"sync"
	"time"

	"repro/internal/fabric"
)

// MultiHost serves many documents over one endpoint: it claims the
// endpoint's handler, demultiplexes traffic by each message's Doc key, and
// lazily creates one Host per document on first join. In a sharded
// deployment an owns predicate (internal/daemon's shard placement) confines
// the host to its shard: traffic for documents placed elsewhere is counted
// and dropped rather than silently answered, which would fork the
// document's log.
type MultiHost struct {
	ep    fabric.Endpoint
	mode  Mode
	clock func() time.Duration
	owns  func(doc string) bool
	// OnItem observes every accepted post across all documents. Set it
	// before traffic flows; hosts capture it at creation.
	OnItem func(doc string, it Item)

	mu       sync.Mutex
	hosts    map[string]*Host
	rejected uint64
}

// NewMultiHost creates a multi-document host on ep and claims its handler.
// owns restricts service to the documents it returns true for; nil serves
// everything (a single unsharded host).
func NewMultiHost(ep fabric.Endpoint, mode Mode, clock func() time.Duration, owns func(doc string) bool) *MultiHost {
	mh := &MultiHost{
		ep:    ep,
		mode:  mode,
		clock: clock,
		owns:  owns,
		hosts: make(map[string]*Host),
	}
	ep.SetHandler(func(from string, payload any, size int) {
		mh.receive(from, payload)
	})
	return mh
}

// receive demultiplexes one wire message. The per-document Host.Receive
// runs outside mh.mu: a host receive can queue endpoint sends, and those
// must never happen under a lock (the block-lock discipline).
func (mh *MultiHost) receive(from string, payload any) {
	doc := DocOf(payload)
	if mh.owns != nil && !mh.owns(doc) {
		mh.mu.Lock()
		mh.rejected++
		mh.mu.Unlock()
		return
	}
	mh.mu.Lock()
	h, ok := mh.hosts[doc]
	if !ok {
		// Only a join opens a document: posts or polls for an unknown
		// document are from participants who never joined, and a Host
		// would drop them anyway — creating state for them would let
		// strangers allocate documents.
		switch payload.(type) {
		case *MsgJoin:
		default:
			mh.mu.Unlock()
			return
		}
		h = NewDocHost(mh.ep, mh.mode, mh.clock, doc)
		if onItem := mh.OnItem; onItem != nil {
			d := doc
			h.OnItem = func(it Item) { onItem(d, it) }
		}
		mh.hosts[doc] = h
	}
	mh.mu.Unlock()
	h.Receive(from, payload)
}

// Host returns the host serving doc, or nil if no participant has joined
// it yet.
func (mh *MultiHost) Host(doc string) *Host {
	mh.mu.Lock()
	defer mh.mu.Unlock()
	return mh.hosts[doc]
}

// Docs returns the open documents, sorted.
func (mh *MultiHost) Docs() []string {
	mh.mu.Lock()
	defer mh.mu.Unlock()
	out := make([]string, 0, len(mh.hosts))
	for doc := range mh.hosts {
		out = append(out, doc)
	}
	sort.Strings(out)
	return out
}

// Rejected counts messages dropped because their document is owned by
// another shard's host.
func (mh *MultiHost) Rejected() uint64 {
	mh.mu.Lock()
	defer mh.mu.Unlock()
	return mh.rejected
}

// SetMode switches one document's session mode (no-op for unopened docs).
func (mh *MultiHost) SetMode(doc string, mode Mode) {
	if h := mh.Host(doc); h != nil {
		h.SetMode(mode)
	}
}
