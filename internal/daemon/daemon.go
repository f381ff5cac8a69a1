// Package daemon is the one place the live deployment is assembled: New
// builds what cmd/sessiond runs, Dial what cmd/cscwctl runs, and both
// commands are flag parsing over them. NewHost and Attach are the same two
// halves on any endpoint, which is how internal/simworld runs the shipped
// composition on the simulator. Placement and engine arrive as Config
// policy; the seam fields let a harness interpose on the shipped wiring
// instead of copying it. An engine rides the session log as eng/op items: a
// participant's Pump holds its replica, and with Engine ot the host hands
// each submission's item body to one engine.Server per document, which
// answers with the commit's body. Every substrate runs this NewHost; there
// is no second loop.
//
// Protocol: length-prefixed frames (internal/transport) carrying the binary
// frames of the one wire codec (internal/fabric) with the session wire tags.
// A participant dials the daemon, and the daemon answers on that same
// connection, so it never learns a participant's address: the first frame of
// Participant.Join is the MsgJoin itself.
package daemon

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
	"repro/internal/transport"
)

// HostID is the transport id every daemon listens under, and so the host a
// participant's session client talks to.
const HostID = "host"

// Config is a deployment's policy. The plain fields are the commands' flags,
// one each, with no defaults of their own: the flag sets supply those.
type Config struct {
	Listen string // sessiond -listen
	Mode   string // sessiond -mode: "sync" or "async"
	// sessiond -shards, -shard: documents are routed across Shards ordering
	// domains and this daemon serves domain Shard, dropping (and counting)
	// the rest, so no document's log can fork across daemons.
	Shards, Shard int

	User string // cscwctl -user
	Host string // cscwctl -host
	Doc  string // cscwctl -doc

	Engine string // -engine: "ot" or "crdt"; for cscwctl also "", plain chat

	// Seams, nil in both commands. A Wrap returns what the wiring uses in
	// place of what it built; Middleware wraps the fabric endpoint;
	// OnIntegrate stands around the host's integration of one eng/op item and
	// must call integrate, which returns the body posted for it ("" for none).
	WrapTransport func(transport.Endpoint) transport.Endpoint
	WrapCodec     func(fabric.PayloadCodec) fabric.PayloadCodec
	Middleware    []fabric.Middleware
	OnIntegrate   func(doc string, it session.Item, integrate func() string)
}

// edge puts the fabric on a TCP endpoint both sides build the same way:
// codec → seams → fabric adapter. Closing the result closes tep.
func (cfg Config) edge(tep transport.Endpoint) fabric.Endpoint {
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	var codec fabric.PayloadCodec = reg
	if cfg.WrapCodec != nil {
		codec = cfg.WrapCodec(codec)
	}
	if cfg.WrapTransport != nil {
		tep = cfg.WrapTransport(tep)
	}
	return fabric.Wrap(fabric.FromTransport(tep, codec), cfg.Middleware...)
}

// mode checks the daemon-side fields and resolves Mode.
func (cfg Config) mode() (session.Mode, error) {
	mode, ok := map[string]session.Mode{"sync": session.Synchronous, "async": session.Asynchronous}[cfg.Mode]
	switch {
	case !ok:
		return 0, fmt.Errorf("unknown mode %q (sync or async)", cfg.Mode)
	case cfg.Shard < 0 || cfg.Shard >= cfg.Shards:
		return 0, fmt.Errorf("-shard %d outside [0,%d)", cfg.Shard, cfg.Shards)
	case cfg.Engine != engine.OT && cfg.Engine != engine.CRDT:
		return 0, fmt.Errorf("unknown engine %q (ot or crdt)", cfg.Engine)
	}
	return mode, nil
}

// NewHost is the daemon above its TCP edge, on any endpoint and clock: a
// session.Host that, with Engine ot, integrates eng/op submissions body to
// body. It reads Mode, Shards, Shard, Engine and OnIntegrate.
func NewHost(ep fabric.Endpoint, clock fabric.Clock, cfg Config) (*session.Host, error) {
	mode, err := cfg.mode()
	if err != nil {
		return nil, err
	}
	host := session.NewHost(ep, mode, clock)
	if cfg.Shards > 1 { // otherwise one daemon owns every document
		host.Owns = func(doc string) bool { return shardOf(doc, cfg.Shards) == cfg.Shard }
	}

	var sites sync.Map // doc → *otSite, the document's integration site
	integrate := func(doc string, it session.Item) string {
		site, ok := sites.Load(doc)
		if !ok {
			h := host.Host(doc)
			site, _ = sites.LoadOrStore(doc, &otSite{
				srv:  engine.NewServer(session.HostAuthor),
				post: func(body string) { h.PostLocal(engine.ItemKind, body) },
			})
		}
		return site.(*otSite).integrate(it)
	}
	// OnItem runs outside the host lock, so PostLocal from inside it is safe.
	host.OnItem = func(doc string, it session.Item) {
		switch {
		case cfg.Engine != engine.OT || it.Kind != engine.ItemKind || it.From == session.HostAuthor:
		case cfg.OnIntegrate != nil:
			cfg.OnIntegrate(doc, it, func() string { return integrate(doc, it) })
		default:
			integrate(doc, it)
		}
	}
	return host, nil
}

// otSite is one document's OT integration site at the daemon: the server,
// the buffer it appends each answer to, and the lock that holds both across
// the post, so the site's items enter the log in the order it produced them.
type otSite struct {
	mu   sync.Mutex
	srv  *engine.Server
	buf  []byte
	post func(body string)
}

// integrate hands one eng/op item to the server and posts the body it
// answers with, which it returns ("" for none). The posted string is the one
// allocation: the log keeps it.
func (s *otSite) integrate(it session.Item) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.buf, err = s.srv.Integrate(it.From, it.Body, s.buf[:0]); err != nil {
		log.Printf("engine: bad eng/op from %s: %v", it.From, err)
	}
	if len(s.buf) == 0 {
		return ""
	}
	body := string(s.buf)
	s.post(body)
	return body
}

// shardOf places doc in one of shards ordering domains: FNV-1a over the key,
// modulo the count, so every daemon of a deployment agrees on the placement
// without coordination. testdata/shards.golden pins it.
func shardOf(doc string, shards int) int {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < len(doc); i++ {
		h ^= uint64(doc[i])
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return int(h % uint64(shards))
}

// Daemon is a running sessiond: the host core on a TCP edge.
type Daemon struct {
	Host *session.Host
	Mode session.Mode // what cfg.Mode resolved to
	addr string
	ep   fabric.Endpoint
}

// New checks cfg, then listens on cfg.Listen; frames are served from the
// moment it returns.
func New(cfg Config) (*Daemon, error) {
	mode, err := cfg.mode()
	if err != nil {
		return nil, err
	}
	tep, err := transport.ListenTCP(HostID, cfg.Listen, transport.NewAddressBook())
	if err != nil {
		return nil, err
	}
	ep := cfg.edge(tep)
	// fabric.WallClock is the declared real-time boundary (cscwlint det-time).
	// cfg.mode, NewHost's one error, passed above.
	host, _ := NewHost(ep, fabric.WallClock(), cfg)
	return &Daemon{Host: host, Mode: mode, addr: tep.Addr(), ep: ep}, nil
}

// Addr is the bound listen address (the port Listen ":0" resolved to).
func (d *Daemon) Addr() string { return d.addr }

// Serve holds the deployment open until ctx ends. Call Close afterwards.
func (d *Daemon) Serve(ctx context.Context) { <-ctx.Done() }

// Close stops listening and drops every connection.
func (d *Daemon) Close() error { return d.ep.Close() }

// Participant is one cscwctl: a session client on an edge to the daemon and,
// with Engine set, a Pump holding its replica of Doc (nil for plain chat).
// Set the Client's On* callbacks before Join and hand eng/op items to
// Deliver.
type Participant struct {
	Client *session.Client
	*Pump

	ep    fabric.Endpoint
	host  string        // cfg.Host, for error messages
	acked chan struct{} // one token per processed MsgJoinAck
}

// Dial builds a participant's half of the deployment on a TCP edge that only
// dials (it holds no listening socket): Attach on that edge, with Host the
// daemon's address. Nothing is sent before Join.
func Dial(cfg Config) (*Participant, error) {
	book := transport.NewAddressBook()
	book.Set(HostID, cfg.Host)
	tep, err := transport.DialTCP(cfg.User, book)
	if err != nil {
		return nil, err
	}
	ep := cfg.edge(tep)
	p, err := Attach(ep, cfg)
	if err != nil {
		_ = ep.Close() // nothing was sent on it; the Attach error is the one to report
		return nil, err
	}
	return p, nil
}

// Attach builds a participant on ep, whatever its substrate, from User, Doc
// and Engine; it claims ep's handler and sends nothing. The daemon is ep's
// peer HostID. User may be neither HostID nor in session.HostAuthor's '!'
// namespace.
func Attach(ep fabric.Endpoint, cfg Config) (*Participant, error) {
	if cfg.User == HostID || strings.HasPrefix(cfg.User, "!") {
		return nil, fmt.Errorf("user %q is reserved", cfg.User)
	}
	p := &Participant{ep: ep, host: cfg.Host, acked: make(chan struct{}, 1)}
	if cfg.Engine != "" {
		// The OT server is the daemon (a sessiond running -engine ot).
		eng, err := engine.New(cfg.Engine, cfg.Doc, cfg.User, session.HostAuthor)
		if err != nil {
			return nil, err
		}
		p.Pump = newPump(cfg.User, eng, func(body string) error {
			return p.Client.Post(engine.ItemKind, body, 0)
		})
	}
	p.Client = session.NewClientForDoc(ep, HostID, cfg.Doc)
	// The client runs OnJoined before the backlog's OnItem calls, so a join
	// is over only when the handler that processed its ack returns.
	ep.SetHandler(func(from string, payload any, size int) {
		p.Client.Receive(from, payload)
		if _, ok := payload.(*session.MsgJoinAck); ok {
			select {
			case p.acked <- struct{}{}:
			default:
			}
		}
	})
	return p, nil
}

// Join joins, dialing the daemon if no connection is open, and waits until
// the acknowledgement and its backlog have been processed.
func (p *Participant) Join(timeout time.Duration) error {
	if err := p.Client.Join(0); err != nil {
		return fmt.Errorf("reach sessiond at %s: %w", p.host, err)
	}
	select {
	case <-p.acked:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("join timed out")
	}
}

// Close releases the edge: the connection to the daemon and its reader.
func (p *Participant) Close() error { return p.ep.Close() }
