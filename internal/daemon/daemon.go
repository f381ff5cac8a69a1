// Package daemon is the one place the live deployment is assembled: New
// builds what cmd/sessiond runs, Dial what cmd/cscwctl runs, and both
// commands are flag parsing over them. Placement and engine arrive as Config
// policy; the seam fields let a harness interpose on the shipped wiring
// instead of copying it. Pump is how an engine rides the session log.
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

const hostID = "host" // the transport id every daemon listens under

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
	// must call integrate, which returns the commit bodies posted for it.
	WrapTransport func(transport.Endpoint) transport.Endpoint
	WrapCodec     func(fabric.PayloadCodec) fabric.PayloadCodec
	Middleware    []fabric.Middleware
	OnIntegrate   func(doc string, it session.Item, integrate func() []string)
}

// edge opens the TCP edge both sides share: codec → listener → fabric adapter.
// Closing the returned endpoint closes the listener.
func (cfg Config) edge(id, listen string, book *transport.AddressBook) (fabric.Endpoint, string, error) {
	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	var codec fabric.PayloadCodec = reg
	if cfg.WrapCodec != nil {
		codec = cfg.WrapCodec(codec)
	}
	tep, err := transport.ListenTCP(id, listen, book)
	if err != nil {
		return nil, "", err
	}
	if cfg.WrapTransport != nil {
		return fabric.FromTransport(cfg.WrapTransport(tep), codec), tep.Addr(), nil
	}
	return fabric.FromTransport(tep, codec), tep.Addr(), nil
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
// session.Host that logs every item and, with Engine ot, integrates eng/op
// submissions. It reads Mode, Shards, Shard, Engine and OnIntegrate.
func NewHost(ep fabric.Endpoint, clock fabric.Clock, cfg Config) (*session.Host, error) {
	mode, err := cfg.mode()
	if err != nil {
		return nil, err
	}
	host := session.NewHost(ep, mode, clock)
	if cfg.Shards > 1 { // otherwise one daemon owns every document
		host.Owns = func(doc string) bool { return shardOf(doc, cfg.Shards) == cfg.Shard }
	}

	var sites sync.Map // doc → *Pump, the document's integration site
	integrate := func(doc string, it session.Item) []string {
		site, ok := sites.Load(doc)
		if !ok {
			// New cannot fail: OT with a server site is what it accepts.
			eng, _ := engine.New(engine.OT, doc, session.HostAuthor, session.HostAuthor)
			h := host.Host(doc)
			site, _ = sites.LoadOrStore(doc, newPump(session.HostAuthor, eng, func(body string) error {
				h.PostLocal(engine.ItemKind, body)
				return nil
			}))
		}
		_, commits, err := site.(*Pump).Deliver(it)
		if err != nil {
			log.Printf("engine: %v", err)
		}
		return commits
	}
	// OnItem runs outside the host lock, so PostLocal from inside it is safe.
	host.OnItem = func(doc string, it session.Item) {
		name := doc
		if name == "" {
			name = "(unnamed)"
		}
		log.Printf("item %s#%d from %s (%s): %s", name, it.Seq, it.From, it.Kind, engine.ShowItemBody(it.Kind, it.Body))
		switch {
		case cfg.Engine != engine.OT || it.Kind != engine.ItemKind || it.From == session.HostAuthor:
		case cfg.OnIntegrate != nil:
			cfg.OnIntegrate(doc, it, func() []string { return integrate(doc, it) })
		default:
			integrate(doc, it)
		}
	}
	return host, nil
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
	ep, addr, err := cfg.edge(hostID, cfg.Listen, transport.NewAddressBook())
	if err != nil {
		return nil, err
	}
	ep = fabric.Wrap(ep, cfg.Middleware...)
	// fabric.WallClock is the declared real-time boundary (cscwlint det-time).
	host, err := NewHost(ep, fabric.WallClock(), cfg)
	if err != nil {
		_ = ep.Close() // cfg.mode passed above; its error is the one to report
		return nil, err
	}
	return &Daemon{Host: host, Mode: mode, addr: addr, ep: ep}, nil
}

// Addr is the bound listen address (the port Listen ":0" resolved to).
func (d *Daemon) Addr() string { return d.addr }

// Serve holds the deployment open until ctx ends. Call Close afterwards.
func (d *Daemon) Serve(ctx context.Context) { <-ctx.Done() }

// Close stops listening and drops every connection.
func (d *Daemon) Close() error { return d.ep.Close() }

// Participant is one cscwctl: a session client on its own TCP edge and, with
// Engine set, a Pump holding its replica of Doc (nil for plain chat). Set the
// Client's On* callbacks before Join and hand eng/op items to Deliver.
type Participant struct {
	Client *session.Client
	*Pump

	ep    fabric.Endpoint
	host  string        // cfg.Host, for error messages
	acked chan struct{} // one token per processed MsgJoinAck
}

// Dial builds a participant's half of the deployment from User, Host, Doc,
// Engine and the seams; nothing is sent before Join. User may be neither the
// daemon's transport id nor in session.HostAuthor's '!' namespace.
func Dial(cfg Config) (*Participant, error) {
	if cfg.User == hostID || strings.HasPrefix(cfg.User, "!") {
		return nil, fmt.Errorf("user %q is reserved", cfg.User)
	}
	p := &Participant{host: cfg.Host, acked: make(chan struct{}, 1)}
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
	book := transport.NewAddressBook()
	book.Set(hostID, cfg.Host)
	ep, _, err := cfg.edge(cfg.User, "127.0.0.1:0", book)
	if err != nil {
		return nil, err
	}
	p.ep = fabric.Wrap(ep, cfg.Middleware...)
	p.Client = session.NewClientForDoc(p.ep, hostID, cfg.Doc)
	// The client runs OnJoined before the backlog's OnItem calls, so a join
	// is over only when the handler that processed its ack returns.
	p.ep.SetHandler(func(from string, payload any, size int) {
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

// Close releases the edge: listener, connections, readers.
func (p *Participant) Close() error { return p.ep.Close() }
