// Command sessiond hosts a CSCW session over TCP: participants join with
// cmd/cscwctl, post items, poll, and receive synchronous pushes. The daemon
// is the live-deployment face of the session layer the experiments exercise
// over the simulator.
//
// Usage:
//
//	sessiond [-listen 127.0.0.1:7480] [-mode sync|async] [-v]
//	         [-codec json|binary] [-engine ot|crdt] [-shards N -shard K]
//
// Protocol: length-prefixed frames (internal/transport) carrying either
// JSON envelopes or binary frames (-codec, internal/fabric) with the
// session wire tags. A client's first frame is a fabric.Hello carrying its
// dialable address so the host can push back to it; a Tap middleware feeds
// those into the address book.
//
// Convergence engines (-engine) ride the session log as "eng/op" items
// (internal/engine item bodies). With -engine crdt the daemon is a pure
// relay: CRDT replicas at the clients merge each other's ops and the host
// never inspects them. With -engine ot the daemon runs the authoritative
// integration site per document: it applies client submissions to a
// server-side replica and publishes the resulting commits back into the
// log via PostLocal, authored as session.HostAuthor.
//
// The daemon serves every document (session key) by default. In a sharded
// deployment, run one daemon per ordering domain with the same -shards
// count and distinct -shard indices: each serves only the documents the
// deterministic router places on its domain and drops (and counts) the
// rest, so no document's log can fork across daemons.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/route"
	"repro/internal/session"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sessiond", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:7480", "listen address")
	modeFlag := fs.String("mode", "sync", "session mode: sync or async")
	verbose := fs.Bool("v", false, "log every frame sent and received")
	codecFlag := fs.String("codec", "json", "wire codec: json or binary (both ends must match)")
	engFlag := fs.String("engine", engine.CRDT, "convergence engine for eng/op items: crdt (pure relay) or ot (daemon integrates)")
	shards := fs.Int("shards", 1, "ordering domains documents are routed across")
	shard := fs.Int("shard", 0, "domain this daemon serves (0-based, < shards)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode := session.Synchronous
	if *modeFlag == "async" {
		mode = session.Asynchronous
	}
	if *shard < 0 || *shard >= *shards {
		return fmt.Errorf("sessiond: -shard %d outside [0,%d)", *shard, *shards)
	}
	if *engFlag != engine.OT && *engFlag != engine.CRDT {
		return fmt.Errorf("sessiond: unknown engine %q (ot or crdt)", *engFlag)
	}

	book := transport.NewAddressBook()
	tep, err := transport.ListenTCP("host", *listen, book)
	if err != nil {
		return err
	}

	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	var codec fabric.PayloadCodec = reg
	switch *codecFlag {
	case "json":
	case "binary":
		codec = fabric.NewBinaryCodec(reg)
	default:
		return fmt.Errorf("sessiond: unknown codec %q (json or binary)", *codecFlag)
	}

	// Middleware stack: hello interception (address-book registration) and,
	// with -v, a trace of every frame.
	mws := []fabric.Middleware{
		fabric.Tap(nil, func(from string, payload any, size int) {
			if h, ok := payload.(*fabric.Hello); ok && h.Addr != "" {
				book.Set(from, h.Addr)
				log.Printf("hello from %s at %s", from, h.Addr)
			}
		}),
	}
	if *verbose {
		mws = append(mws, fabric.Logging(log.Printf))
	}
	ep := fabric.Wrap(fabric.FromTransport(tep, codec), mws...)
	defer ep.Close()

	// Sharded deployments confine this daemon to its own ordering domain;
	// one daemon with -shards 1 owns everything (owns == nil).
	var owns func(doc string) bool
	if *shards > 1 {
		router := route.New(*shards)
		mine := *shard
		owns = func(doc string) bool { return router.Shard(doc) == mine }
	}

	// fabric.WallClock is the declared real-time boundary; the host itself
	// never reads the wall clock (cscwlint det-time enforces this).
	host := session.NewMultiHost(ep, mode, fabric.WallClock(), owns)

	// With -engine ot the daemon is the integration site: eng/op submissions
	// flow through a server-side replica per document and its commits are
	// posted back into the log. OnItem runs outside the host lock, so
	// PostLocal from inside it is safe (and its own items are skipped by the
	// HostAuthor check).
	engCodec := fabric.NewBinaryCodec(engine.NewWireCodec())
	var engMu sync.Mutex
	engDocs := make(map[string]engine.Doc)
	integrate := func(doc string, it session.Item) {
		to, payload, err := engine.DecodeItemBody(engCodec, it.Body)
		if err != nil {
			log.Printf("engine: bad eng/op from %s: %v", it.From, err)
			return
		}
		if to != "" && to != session.HostAuthor {
			return // client-to-client traffic; the log already relayed it
		}
		engMu.Lock()
		d := engDocs[doc]
		if d == nil {
			var err error
			d, err = engine.New(engine.OT, doc, session.HostAuthor, session.HostAuthor)
			if err != nil {
				engMu.Unlock()
				log.Printf("engine: %v", err)
				return
			}
			engDocs[doc] = d
		}
		out, err := d.Apply(it.From, payload)
		engMu.Unlock()
		if err != nil {
			log.Printf("engine: applying %T from %s: %v", payload, it.From, err)
			return
		}
		h := host.Host(doc)
		for _, m := range out {
			body, err := engine.EncodeItemBody(engCodec, m)
			if err != nil {
				log.Printf("engine: %v", err)
				return
			}
			h.PostLocal(engine.ItemKind, body)
		}
	}
	host.OnItem = func(doc string, it session.Item) {
		name := doc
		if name == "" {
			name = "(unnamed)"
		}
		log.Printf("item %s#%d from %s (%s): %s", name, it.Seq, it.From, it.Kind, it.Body)
		if *engFlag == engine.OT && it.Kind == engine.ItemKind && it.From != session.HostAuthor {
			integrate(doc, it)
		}
	}

	fmt.Printf("sessiond listening on %s (%s mode, %s codec, %s engine, domain %s of %d)\n",
		tep.Addr(), mode, *codecFlag, *engFlag, route.DomainName(*shard), *shards)
	select {} // serve until killed
}
