// Command cscwctl is the control tool for the CSCW stack. With no
// subcommand it is the interactive client for cmd/sessiond: it joins a
// TCP-hosted session, posts items from stdin, and prints items and presence
// changes as they arrive.
//
// Usage:
//
//	cscwctl -user alice [-host 127.0.0.1:7480] [-doc name] [-engine ot|crdt]
//	cscwctl chaos -list
//	cscwctl chaos -scenario <name> [-seed <n>] [-v]
//
// The chaos subcommand runs one deterministic fault scenario from
// internal/chaos and exits non-zero if any invariant is violated; -v prints
// the full event trace. The same seed always reproduces the same trace.
// Exit codes: 0 every invariant held, 1 a violation, 2 usage error.
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
	"time"

	"repro/internal/chaos"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/session"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "chaos" {
		os.Exit(runChaos(args[1:]))
	}
	if err := run(args); err != nil {
		log.Fatal(err)
	}
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
	var cfg daemon.Config
	fs.StringVar(&cfg.User, "user", "", "participant name (required)")
	fs.StringVar(&cfg.Host, "host", "127.0.0.1:7480", "sessiond address")
	fs.StringVar(&cfg.Doc, "doc", "", "document (session) to join; empty joins the unnamed session")
	fs.StringVar(&cfg.Engine, "engine", "", "edit -doc through a convergence engine: ot or crdt (default: plain chat)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.User == "" {
		return fmt.Errorf("cscwctl: -user is required")
	}
	p, err := daemon.Dial(cfg)
	if err != nil {
		return fmt.Errorf("cscwctl: %w", err)
	}
	defer p.Close()

	cli := p.Client
	showDoc := func(format string) {
		text, pending := p.Text()
		fmt.Printf(format, text, pending)
	}
	cli.OnItem = func(it session.Item) {
		if p.Pump == nil || it.Kind != engine.ItemKind {
			fmt.Printf("[#%d %s] %s: %s\n", it.Seq, it.Kind, it.From, engine.ShowItemBody(it.Kind, it.Body))
			return
		}
		applied, err := p.Deliver(it)
		if err != nil {
			fmt.Fprintf(os.Stderr, "engine: %v\n", err)
		}
		if applied {
			showDoc("-- doc now %q (%d pending) --\n")
		}
	}
	cli.OnPresence = func(who string, p session.Presence) {
		fmt.Printf("-- %s is %s --\n", who, p)
	}
	// The host acks every MsgJoin, so a resumed session prints this again.
	cli.OnJoined = func(m session.Mode, members []string) {
		fmt.Printf("-- joined (%s mode); members: %s --\n", m, strings.Join(members, ", "))
	}
	if err := p.Join(5 * time.Second); err != nil {
		return err
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
			return cli.Leave(0)
		case p.Pump != nil && line == "/text":
			showDoc("-- doc %q (%d pending) --\n")
		case p.Pump != nil && line == "/tick":
			err = p.Edit(func(d engine.Doc) ([]engine.Msg, error) { return d.Tick(), nil })
		case p.Pump != nil && strings.HasPrefix(line, "/i "):
			if err = engineInsert(p, line[len("/i "):]); err == nil {
				showDoc("-- doc now %q (%d pending) --\n")
			}
		case p.Pump != nil && strings.HasPrefix(line, "/d "):
			if err = engineDelete(p, line[len("/d "):]); err == nil {
				showDoc("-- doc now %q (%d pending) --\n")
			}
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
func engineInsert(p *daemon.Participant, arg string) error {
	posStr, text, ok := strings.Cut(strings.TrimSpace(arg), " ")
	if !ok || text == "" {
		return fmt.Errorf("usage: /i <pos> <text>")
	}
	pos, err := strconv.Atoi(posStr)
	if err != nil {
		return fmt.Errorf("usage: /i <pos> <text>: %v", err)
	}
	return p.Edit(func(d engine.Doc) (msgs []engine.Msg, err error) {
		for _, ch := range text {
			out, err := d.Insert(pos, ch)
			if err != nil {
				return msgs, err
			}
			msgs = append(msgs, out...)
			pos++
		}
		return msgs, nil
	})
}

// engineDelete handles "/d <pos>".
func engineDelete(p *daemon.Participant, arg string) error {
	pos, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil {
		return fmt.Errorf("usage: /d <pos>: %v", err)
	}
	return p.Edit(func(d engine.Doc) ([]engine.Msg, error) { return d.Delete(pos) })
}
