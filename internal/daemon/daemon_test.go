package daemon

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/simworld"
	"repro/internal/transport"
)

// The daemon logs a line per item.
func TestMain(m *testing.M) {
	log.SetOutput(io.Discard)
	os.Exit(m.Run())
}

const wait = 5 * time.Second

func hostConfig(eng string) Config {
	return Config{Listen: "127.0.0.1:0", Mode: "sync", Shards: 1, Engine: eng}
}

func startDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// peer is a Participant wired the way cmd/cscwctl wires one, keeping what it
// saw instead of printing it.
type peer struct {
	*Participant
	t *testing.T

	mu      sync.Mutex
	items   []session.Item
	members []string
	changed chan struct{} // one token after every item and every join ack
}

// dial fills in the participant side of cfg (its Engine and seams are the
// caller's) and wires the callbacks; it does not join.
func dial(t *testing.T, d *Daemon, user, doc string, cfg Config) *peer {
	t.Helper()
	cfg.User, cfg.Host, cfg.Doc = user, d.Addr(), doc
	p, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	pr := &peer{Participant: p, t: t, changed: make(chan struct{}, 1)}
	p.Client.OnItem = func(it session.Item) {
		if p.Pump != nil {
			if _, _, err := p.Deliver(it); err != nil {
				t.Errorf("%s: %v", user, err)
			}
		}
		pr.note(func() { pr.items = append(pr.items, it) })
	}
	p.Client.OnJoined = func(_ session.Mode, members []string) {
		pr.note(func() { pr.members = members })
	}
	return pr
}

func (pr *peer) note(record func()) {
	pr.mu.Lock()
	record()
	pr.mu.Unlock()
	select {
	case pr.changed <- struct{}{}:
	default:
	}
}

// until blocks until cond holds of what the peer has seen.
func (pr *peer) until(what string, cond func() bool) {
	pr.t.Helper()
	deadline := time.After(wait)
	for {
		pr.mu.Lock()
		ok := cond()
		pr.mu.Unlock()
		if ok {
			return
		}
		select {
		case <-pr.changed:
		case <-deadline:
			pr.t.Fatalf("%s: timed out waiting for %s", pr.Client.ID(), what)
		}
	}
}

func (pr *peer) join() {
	pr.t.Helper()
	if err := pr.Join(wait); err != nil {
		pr.t.Fatalf("%s: %v", pr.Client.ID(), err)
	}
}

func (pr *peer) insert(pos int, text string) {
	pr.t.Helper()
	_, err := pr.Edit(func(d engine.Doc) (msgs []engine.Msg, err error) {
		for i, ch := range text {
			out, err := d.Insert(pos+i, ch)
			if err != nil {
				return msgs, err
			}
			msgs = append(msgs, out...)
		}
		return msgs, nil
	})
	if err != nil {
		pr.t.Fatalf("%s: %v", pr.Client.ID(), err)
	}
}

// seen returns copies of what the peer has recorded so far.
func (pr *peer) seen() (items []session.Item, members []string) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return append([]session.Item(nil), pr.items...), append([]string(nil), pr.members...)
}

// hostBodies picks out the bodies of the items the daemon authored.
func hostBodies(items []session.Item) (bodies []string) {
	for _, it := range items {
		if it.From == session.HostAuthor {
			bodies = append(bodies, it.Body)
		}
	}
	return bodies
}

// TestDeployment drives the shipped path over loopback TCP: a daemon and two
// participants per engine, on the one codec (the subtests keep its flag
// value, binary, in their names). The chat cells are what cmd/sessiond and a
// plain cmd/cscwctl run.
func TestDeployment(t *testing.T) {
	for _, eng := range []string{"chat", engine.CRDT, engine.OT} {
		t.Run("binary/"+eng, func(t *testing.T) {
			hostEng, cliEng := eng, eng
			if eng == "chat" {
				hostEng, cliEng = engine.CRDT, ""
			}
			d := startDaemon(t, hostConfig(hostEng))
			alice := dial(t, d, "alice", "notes", Config{Engine: cliEng})
			bob := dial(t, d, "bob", "notes", Config{Engine: cliEng})
			alice.join()
			bob.join()
			if _, got := alice.seen(); !reflect.DeepEqual(got, []string{"alice"}) {
				t.Errorf("alice joined with members %v", got)
			}
			if _, got := bob.seen(); !reflect.DeepEqual(got, []string{"alice", "bob"}) {
				t.Errorf("bob joined with members %v", got)
			}

			// A post reaches the peer. The reply comes back on the
			// connection an echo would have used, behind it: when alice
			// has the reply and nothing else, nothing echoed.
			if err := alice.Client.Post("chat", "over real sockets", 0); err != nil {
				t.Fatal(err)
			}
			bob.until("alice's post", func() bool { return len(bob.items) == 1 })
			if items, _ := bob.seen(); items[0].From != "alice" || items[0].Kind != "chat" || items[0].Body != "over real sockets" {
				t.Errorf("bob received %+v", items[0])
			}
			if err := bob.Client.Post("chat", "heard", 0); err != nil {
				t.Fatal(err)
			}
			alice.until("bob's reply", func() bool { return len(alice.items) == 1 })
			if items, _ := alice.seen(); items[0].From != "bob" || items[0].Body != "heard" {
				t.Errorf("alice received %+v: an echo?", items[0])
			}
			if eng == "chat" {
				return
			}

			// Under ot every edit comes back to everyone as a commit the
			// daemon authored; under crdt the daemon authors nothing and
			// each peer sees only the other's ops.
			commits, fromAlice, fromBob := 0, 3, 2
			if eng == engine.OT {
				commits = 5
			}
			alice.insert(0, "abc")
			bob.insert(0, "xy")
			for pr, ops := range map[*peer]int{alice: fromBob, bob: fromAlice} {
				pr.until("convergence", func() bool {
					text, pending := pr.Text()
					return len(text) == 5 && pending == 0 && len(pr.items) == 1+ops+commits
				})
			}
			if at, _ := alice.Text(); at != first(bob.Text()) {
				t.Errorf("alice has %q, bob has %q", at, first(bob.Text()))
			}
			if items, _ := bob.seen(); len(hostBodies(items)) != commits {
				t.Errorf("bob saw %d items from %s, want %d", len(hostBodies(items)), session.HostAuthor, commits)
			}
			if got := d.Host.Host("notes").LogLen(); got != 2+5+commits {
				t.Errorf("log holds %d items, want %d", got, 2+5+commits)
			}
		})
	}
}

// TestRestartedParticipantRejoins: a participant that closes and is dialed
// again under the same user (on a new socket) joins on the first attempt, and
// its backlog holds what was posted while it was gone. The daemon answers on
// whatever connection the join arrived on, so nothing waits for it to notice
// that the old one has closed.
func TestRestartedParticipantRejoins(t *testing.T) {
	d := startDaemon(t, hostConfig(engine.CRDT))
	alice := dial(t, d, "alice", "notes", Config{})
	bob := dial(t, d, "bob", "notes", Config{})
	alice.join()
	bob.join()
	alice.Close()
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, fmt.Sprintf("missed %d", i))
		if err := bob.Client.Post("chat", want[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(wait); d.Host.Host("notes").LogLen() < len(want); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never logged bob's posts")
		}
	}
	again := dial(t, d, "alice", "notes", Config{})
	again.join()
	items, _ := again.seen()
	var got []string
	for _, it := range items {
		if it.From == "bob" {
			got = append(got, it.Body)
		}
	}
	if !reflect.DeepEqual(got, want) || len(items) != len(want) {
		t.Errorf("rejoined with backlog %+v, want bob's %q", items, want)
	}
}

// TestShardPlacementGolden: testdata/shards.golden holds, for a fixed key
// list, the shard an older daemon placed each key in for shards = 1…8. A
// daemon built from this tree must place every document in the same domain,
// or a mixed deployment forks a document's log across two daemons. The file
// is a compatibility record, never regenerated.
func TestShardPlacementGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/shards.golden")
	if err != nil {
		t.Fatal(err)
	}
	keys := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 9 {
			t.Fatalf("bad golden line %q", line)
		}
		key, err := strconv.Unquote(fields[0])
		if err != nil {
			t.Fatalf("bad golden key in %q: %v", line, err)
		}
		for n := 1; n <= 8; n++ {
			if got, want := strconv.Itoa(shardOf(key, n)), fields[n]; got != want {
				t.Errorf("shardOf(%q, %d) = %s, want %s", key, n, got, want)
			}
		}
		keys++
	}
	if keys != 34 {
		t.Errorf("golden holds %d keys, want 34 (doc-0…doc-31, \"\", hot-document)", keys)
	}
}

func TestShardDeterministic(t *testing.T) {
	hit := make(map[int]int)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("doc-%03d", i)
		s := shardOf(key, 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		if again := shardOf(key, 4); again != s {
			t.Fatalf("shard not deterministic for %q: %d then %d", key, s, again)
		}
		hit[s]++
	}
	for s := 0; s < 4; s++ {
		if hit[s] == 0 {
			t.Fatalf("200 keys never landed on shard %d: %v", s, hit)
		}
	}
}

// TestShardRejection: a daemon confined to one ordering domain drops, and
// counts, traffic for documents shardOf places elsewhere.
func TestShardRejection(t *testing.T) {
	cfg := hostConfig(engine.CRDT)
	cfg.Shards, cfg.Shard = 2, 0
	d := startDaemon(t, cfg)
	var mine, foreign string
	for i := 0; mine == "" || foreign == ""; i++ {
		if doc := fmt.Sprintf("doc-%d", i); shardOf(doc, 2) == 0 {
			mine = doc
		} else {
			foreign = doc
		}
	}
	dial(t, d, "alice", mine, Config{}).join()
	before := d.Host.Rejected()
	bob := dial(t, d, "bob", foreign, Config{})
	if err := bob.Join(200 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("join of a foreign document: %v, want a timeout", err)
	}
	if got := d.Host.Rejected(); got != before+1 {
		t.Errorf("Rejected() = %d after a foreign join, want %d", got, before+1)
	}
	if docs := d.Host.Docs(); !reflect.DeepEqual(docs, []string{mine}) {
		t.Errorf("open documents %v, want only %s", docs, mine)
	}
}

func first(text string, _ int) string { return text }

func TestConfigErrors(t *testing.T) {
	ok := hostConfig(engine.CRDT)
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"engine", func(c *Config) { c.Engine = "paxos" }, `unknown engine "paxos" (ot or crdt)`},
		{"mode", func(c *Config) { c.Mode = "asnyc" }, `unknown mode "asnyc" (sync or async)`},
		{"shard", func(c *Config) { c.Shard = 1 }, `-shard 1 outside [0,1)`},
	} {
		cfg := ok
		c.edit(&cfg)
		if d, err := New(cfg); err == nil || err.Error() != c.want {
			t.Errorf("New with bad %s: %v, want %s", c.name, err, c.want)
			if d != nil {
				d.Close()
			}
		}
	}
	for _, c := range []struct{ user, engine, want string }{
		{"u", "paxos", `engine: unknown engine "paxos" (want "ot" or "crdt")`},
		{hostID, "", `user "host" is reserved`},
		{session.HostAuthor, "", `user "!host" is reserved`},
		{"!x", "", `user "!x" is reserved`},
	} {
		if p, err := Dial(Config{User: c.user, Host: "127.0.0.1:1", Engine: c.engine}); err == nil || err.Error() != c.want {
			t.Errorf("Dial as %q with engine %q: %v, want %s", c.user, c.engine, err, c.want)
			if p != nil {
				p.Close()
			}
		}
	}
}

// recorder is a pass-through at each of the four seams that counts what went
// by. One recorder serves the daemon and both participants.
type recorder struct {
	sends, encodes       atomic.Int64
	joinsSent, joinsRecv atomic.Int64

	mu           sync.Mutex
	integrations int
	commits      []string
}

type countedTransport struct {
	transport.Endpoint
	n *atomic.Int64
}

func (e countedTransport) Send(to string, data []byte) error {
	e.n.Add(1)
	return e.Endpoint.Send(to, data)
}

type countedCodec struct {
	fabric.PayloadCodec
	n *atomic.Int64
}

func (c countedCodec) Encode(payload any) ([]byte, error) {
	c.n.Add(1)
	return c.PayloadCodec.Encode(payload)
}

func (r *recorder) seams(cfg Config) Config {
	join := func(n *atomic.Int64) func(string, any, int) {
		return func(_ string, payload any, _ int) {
			if _, ok := payload.(*session.MsgJoin); ok {
				n.Add(1)
			}
		}
	}
	cfg.WrapTransport = func(ep transport.Endpoint) transport.Endpoint { return countedTransport{ep, &r.sends} }
	cfg.WrapCodec = func(c fabric.PayloadCodec) fabric.PayloadCodec { return countedCodec{c, &r.encodes} }
	cfg.Middleware = []fabric.Middleware{fabric.Tap(join(&r.joinsSent), join(&r.joinsRecv))}
	cfg.OnIntegrate = func(doc string, it session.Item, integrate func() []string) {
		commits := integrate()
		r.mu.Lock()
		r.integrations++
		r.commits = append(r.commits, commits...)
		r.mu.Unlock()
	}
	return cfg
}

// parityOps is the length of the seam-parity script.
const parityOps = 200

// parityStream runs a seeded single-writer OT script and returns what a
// second participant received, At (the host's clock) zeroed. With one writer
// the stream is deterministic whatever the timing: the engine keeps one
// submission in flight and nothing is concurrent with it.
func parityStream(t *testing.T, seams func(Config) Config) []session.Item {
	t.Helper()
	d := startDaemon(t, seams(hostConfig(engine.OT)))
	writer := dial(t, d, "writer", "doc", seams(Config{Engine: engine.OT}))
	reader := dial(t, d, "reader", "doc", seams(Config{Engine: engine.OT}))
	writer.join()
	reader.join()
	rng, length := rand.New(rand.NewSource(42)), 0
	for i := 0; i < parityOps; i++ {
		_, err := writer.Edit(func(d engine.Doc) ([]engine.Msg, error) {
			if length > 0 && rng.Intn(3) == 0 {
				length--
				return d.Delete(rng.Intn(length + 1))
			}
			length++
			return d.Insert(rng.Intn(length), rune('a'+rng.Intn(26)))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every op reaches the reader twice: the relayed submission and the commit.
	reader.until("the whole script", func() bool { return len(reader.items) == 2*parityOps })
	writer.until("the last commit", func() bool { _, pending := writer.Text(); return pending == 0 })
	stream, _ := reader.seen()
	for i := range stream {
		stream[i].At = 0
	}
	return stream
}

// TestSeamParity is what the harness's replica-parity check does from outside,
// with nothing left to drift: the same script with no seams and with all four
// set to pass-throughs must give the reader the same stream, and every seam
// must have been applied.
func TestSeamParity(t *testing.T) {
	plain := parityStream(t, func(cfg Config) Config { return cfg })
	var rec recorder
	seamed := parityStream(t, rec.seams)
	if !reflect.DeepEqual(plain, seamed) {
		for i := range plain {
			if i >= len(seamed) || plain[i] != seamed[i] {
				t.Fatalf("streams differ at item %d of %d/%d: %+v", i, len(plain), len(seamed), plain[i])
			}
		}
		t.Fatalf("streams differ in length: %d, %d", len(plain), len(seamed))
	}

	if s, e := rec.sends.Load(), rec.encodes.Load(); s == 0 || s != e {
		t.Errorf("WrapTransport saw %d sends, WrapCodec %d encodes: want equal and non-zero", s, e)
	}
	if s, r := rec.joinsSent.Load(), rec.joinsRecv.Load(); s != 2 || r != 2 {
		t.Errorf("Middleware saw %d joins leave the participants and %d reach the daemon, want 2 and 2", s, r)
	}
	if rec.integrations != parityOps {
		t.Errorf("OnIntegrate ran %d times, want once per submission (%d)", rec.integrations, parityOps)
	}
	if logged := hostBodies(seamed); !reflect.DeepEqual(rec.commits, logged) {
		t.Errorf("OnIntegrate was handed %d commit bodies that are not the %d in the log", len(rec.commits), len(logged))
	}
}

// TestHostCoreOnSimulator runs NewHost, the daemon minus its TCP edge, in
// virtual time: same MultiHost, same integration site, another substrate.
func TestHostCoreOnSimulator(t *testing.T) {
	w := simworld.New(1, netsim.Link{Latency: time.Millisecond})
	host, err := NewHost(w.Endpoint(hostID), w.Sim.Now, Config{Mode: "sync", Shards: 1, Engine: engine.OT})
	if err != nil {
		t.Fatal(err)
	}
	site := func(user string) *Pump {
		eng, err := engine.New(engine.OT, "doc", user, session.HostAuthor)
		if err != nil {
			t.Fatal(err)
		}
		cli := session.NewClientForDoc(w.Endpoint(user), hostID, "doc")
		p := newPump(user, eng, func(body string) error { return cli.Post(engine.ItemKind, body, 0) })
		cli.OnItem = func(it session.Item) {
			if _, _, err := p.Deliver(it); err != nil {
				t.Errorf("%s: %v", user, err)
			}
		}
		if err := cli.Join(0); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := site("a"), site("b")
	w.Sim.Run()
	for i, p := range []*Pump{a, b, a} {
		if _, err := p.Edit(func(d engine.Doc) ([]engine.Msg, error) { return d.Insert(0, rune('x'+i)) }); err != nil {
			t.Fatal(err)
		}
	}
	w.Sim.Run()
	at, ap := a.Text()
	bt, bp := b.Text()
	if len(at) != 3 || at != bt || ap != 0 || bp != 0 {
		t.Errorf("a has %q (%d pending), b has %q (%d pending)", at, ap, bt, bp)
	}
	if got := host.Host("doc").LogLen(); got != 6 {
		t.Errorf("log holds %d items, want 3 submissions and 3 commits", got)
	}
}
