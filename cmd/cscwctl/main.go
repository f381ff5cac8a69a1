// Command cscwctl is the control tool for the CSCW stack. With no
// subcommand it is the interactive client for cmd/sessiond: it joins a
// TCP-hosted session, posts items from stdin, and prints items, presence
// changes and mode switches as they arrive.
//
// Usage:
//
//	cscwctl -user alice [-host 127.0.0.1:7480] [-doc name] [-codec json|binary]
//	        [-engine ot|crdt]
//	cscwctl chaos -list
//	cscwctl chaos -scenario <name> [-seed <n>] [-v]
//	cscwctl lint [-format=text|json|sarif|github] [-baseline=file]
//	        [-stale=warn|fail] [dir] [pkgfilter]
//
// The chaos subcommand runs one deterministic fault scenario from
// internal/chaos and exits non-zero if any invariant is violated; -v prints
// the full event trace. The same seed always reproduces the same trace.
//
// The lint subcommand runs the static-analysis suite (internal/lint, the
// same front-end as cmd/cscwlint, flag for flag) over the module containing
// dir (default "."). Both subcommands share the exit-code contract:
// 0 clean, 1 violation, 2 usage/load error.
//
// Stdin commands (session client):
//
//	/poll           fetch items (asynchronous sessions)
//	/away /back     change presence
//	/leave          leave and exit
//	anything else   posted as a chat item
//
// With -engine the client additionally keeps a local convergence-engine
// replica of -doc (internal/engine): edits apply locally at once and ride
// the session log as eng/op items. With -engine crdt any plain sessiond
// relays them; -engine ot needs a sessiond started with -engine ot, the
// integration site. Extra commands in engine mode:
//
//	/i <pos> <text> insert text at rune position pos
//	/d <pos>        delete the rune at pos
//	/text           print the local replica and its pending count
//	/tick           run one recovery round (resend, pull, gossip)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/lint"
	"repro/internal/session"
	"repro/internal/transport"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "chaos" {
		os.Exit(runChaos(args[1:]))
	}
	if len(args) > 0 && args[0] == "lint" {
		os.Exit(runLint(args[1:]))
	}
	if err := run(args); err != nil {
		log.Fatal(err)
	}
}

// runLint runs the static-analysis suite through the same front-end as
// cmd/cscwlint (flag-for-flag parity: -rules, -format, -baseline, -stale,
// [pkgfilter]) and the same exit codes as runChaos: 0 clean, 1 at least
// one violation, 2 usage or load error.
func runLint(args []string) int {
	return lint.CLIMain("cscwctl lint", args, os.Stdout, os.Stderr)
}

// runChaos executes one chaos scenario and reports via the exit code:
// 0 all invariants held, 1 a violation (replay instructions on stdout),
// 2 usage error.
func runChaos(args []string) int {
	fs := flag.NewFlagSet("cscwctl chaos", flag.ContinueOnError)
	scenario := fs.String("scenario", "", "scenario name (see -list)")
	seed := fs.Int64("seed", 7, "world seed; the same seed reproduces the same trace")
	verbose := fs.Bool("v", false, "print the full event trace")
	list := fs.Bool("list", false, "list scenarios and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, s := range chaos.Scenarios() {
			broken := ""
			if s.Broken {
				broken = " [deliberately broken]"
			}
			fmt.Printf("%-24s %s%s\n", s.Name, s.Desc, broken)
			fmt.Printf("%-24s   invariant: %s\n", "", s.Invariant)
		}
		return 0
	}
	if *scenario == "" {
		fmt.Fprintln(os.Stderr, "cscwctl chaos: -scenario is required (try -list)")
		return 2
	}
	r, err := chaos.Run(*scenario, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cscwctl chaos: %v\n", err)
		return 2
	}
	if *verbose {
		os.Stdout.Write(r.Trace)
	}
	fmt.Println(r.Report())
	if !r.OK() {
		return 1
	}
	return 0
}

func run(args []string) error {
	fs := flag.NewFlagSet("cscwctl", flag.ContinueOnError)
	user := fs.String("user", "", "participant name (required)")
	hostAddr := fs.String("host", "127.0.0.1:7480", "sessiond address")
	doc := fs.String("doc", "", "document (session) to join; empty joins the unnamed session")
	codecFlag := fs.String("codec", "json", "wire codec: json or binary (both ends must match)")
	engFlag := fs.String("engine", "", "edit -doc through a convergence engine: ot or crdt (default: plain chat)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *user == "" {
		return fmt.Errorf("cscwctl: -user is required")
	}

	// Engine mode keeps a local replica; the OT integration site is the
	// daemon itself (session.HostAuthor), so -engine ot needs a sessiond
	// running with -engine ot.
	var eng engine.Doc
	var engMu sync.Mutex
	engCodec := fabric.NewBinaryCodec(engine.NewWireCodec())
	if *engFlag != "" {
		var err error
		eng, err = engine.New(*engFlag, *doc, *user, session.HostAuthor)
		if err != nil {
			return fmt.Errorf("cscwctl: %v", err)
		}
	}

	book := transport.NewAddressBook()
	book.Set("host", *hostAddr)
	tep, err := transport.ListenTCP(*user, "127.0.0.1:0", book)
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
		return fmt.Errorf("cscwctl: unknown codec %q (json or binary)", *codecFlag)
	}
	ep := fabric.FromTransport(tep, codec)
	defer ep.Close()

	cli := session.NewClientForDoc(ep, "host", *doc)

	// postMsgs publishes engine messages into the session log. Callers hold
	// engMu; Post itself is safe to call from the item callback.
	postMsgs := func(msgs []engine.Msg) {
		for _, m := range msgs {
			body, err := engine.EncodeItemBody(engCodec, m)
			if err != nil {
				fmt.Fprintf(os.Stderr, "engine: %v\n", err)
				return
			}
			if err := cli.Post(engine.ItemKind, body, 0); err != nil {
				fmt.Fprintf(os.Stderr, "engine: post: %v\n", err)
				return
			}
		}
	}
	cli.OnItem = func(it session.Item) {
		if eng != nil && it.Kind == engine.ItemKind {
			if it.From == *user {
				return // our own op, already applied locally
			}
			to, payload, err := engine.DecodeItemBody(engCodec, it.Body)
			if err != nil {
				fmt.Fprintf(os.Stderr, "engine: bad eng/op from %s: %v\n", it.From, err)
				return
			}
			if to != "" && to != *user {
				return // addressed to another replica
			}
			engMu.Lock()
			out, err := eng.Apply(it.From, payload)
			if err == nil {
				postMsgs(out)
			}
			text, pending := eng.Text(), eng.Pending()
			engMu.Unlock()
			if err != nil {
				fmt.Fprintf(os.Stderr, "engine: applying %T from %s: %v\n", payload, it.From, err)
				return
			}
			fmt.Printf("-- doc now %q (%d pending) --\n", text, pending)
			return
		}
		fmt.Printf("[#%d %s] %s: %s\n", it.Seq, it.Kind, it.From, it.Body)
	}
	cli.OnMode = func(m session.Mode) {
		fmt.Printf("-- session is now %s --\n", m)
	}
	cli.OnPresence = func(who string, p session.Presence) {
		fmt.Printf("-- %s is %s --\n", who, p)
	}
	joined := make(chan struct{})
	var joinedOnce sync.Once
	cli.OnJoined = func(m session.Mode, members []string) {
		fmt.Printf("-- joined (%s mode); members: %s --\n", m, strings.Join(members, ", "))
		// The host acks every MsgJoin, and a resumed session re-fires this
		// callback; closing twice would panic the client.
		joinedOnce.Do(func() { close(joined) })
	}

	// Introduce ourselves so the host can dial back, then join.
	if err := ep.Send("host", &fabric.Hello{Addr: tep.Addr()}, 0); err != nil {
		return fmt.Errorf("reach sessiond at %s: %w", *hostAddr, err)
	}
	if err := cli.Join(0); err != nil {
		return err
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("join timed out")
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var err error
		switch {
		case line == "":
		case line == "/poll":
			err = cli.Poll(0)
		case line == "/away":
			err = cli.SetPresence(session.Away, 0)
		case line == "/back":
			err = cli.SetPresence(session.Active, 0)
		case line == "/leave":
			err = cli.Leave(0)
			return err
		case eng != nil && line == "/text":
			engMu.Lock()
			fmt.Printf("-- doc %q (%d pending) --\n", eng.Text(), eng.Pending())
			engMu.Unlock()
		case eng != nil && line == "/tick":
			engMu.Lock()
			postMsgs(eng.Tick())
			engMu.Unlock()
		case eng != nil && strings.HasPrefix(line, "/i "):
			err = engineInsert(eng, &engMu, postMsgs, line[len("/i "):])
		case eng != nil && strings.HasPrefix(line, "/d "):
			err = engineDelete(eng, &engMu, postMsgs, line[len("/d "):])
		default:
			err = cli.Post("chat", line, 0)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
	return sc.Err()
}

// engineInsert handles "/i <pos> <text>": each rune applies to the local
// replica at once and its op goes out as an eng/op item.
func engineInsert(eng engine.Doc, mu *sync.Mutex, post func([]engine.Msg), arg string) error {
	posStr, text, ok := strings.Cut(strings.TrimSpace(arg), " ")
	if !ok || text == "" {
		return fmt.Errorf("usage: /i <pos> <text>")
	}
	pos, err := strconv.Atoi(posStr)
	if err != nil {
		return fmt.Errorf("usage: /i <pos> <text>: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, ch := range text {
		msgs, err := eng.Insert(pos, ch)
		if err != nil {
			return err
		}
		post(msgs)
		pos++
	}
	fmt.Printf("-- doc now %q (%d pending) --\n", eng.Text(), eng.Pending())
	return nil
}

// engineDelete handles "/d <pos>".
func engineDelete(eng engine.Doc, mu *sync.Mutex, post func([]engine.Msg), arg string) error {
	pos, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil {
		return fmt.Errorf("usage: /d <pos>: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	msgs, err := eng.Delete(pos)
	if err != nil {
		return err
	}
	post(msgs)
	fmt.Printf("-- doc now %q (%d pending) --\n", eng.Text(), eng.Pending())
	return nil
}
