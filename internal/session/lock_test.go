package session

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// lockProbe is an endpoint with a check in Send: none of its owner's locks
// may be held. A send made under a lock is what lets one slow peer, or a
// self-addressed frame that runs a handler on the sending goroutine, stall
// every other participant of the document. On the simulator every node runs
// on the one goroutine, so a lock that is locked at a Send is held by the
// sender.
type lockProbe struct {
	fabric.Endpoint
	held  func() string  // names an owner's lock that is held, or ""
	sends map[string]int // sends made under a lock, by lock
}

func (p *lockProbe) Send(to string, payload any, size int) error {
	if lock := p.held(); lock != "" {
		p.sends[lock]++
	}
	return p.Endpoint.Send(to, payload, size)
}

func locked(mu *sync.Mutex) bool {
	if mu.TryLock() {
		mu.Unlock()
		return false
	}
	return true
}

// heldLock names the host's map lock or a document's lock if it is held.
func (h *Host) heldLock() string {
	if locked(&h.mu) {
		return "Host.mu"
	}
	for _, doc := range h.Docs() {
		if locked(&h.Host(doc).mu) {
			return "docHost.mu (" + doc + ")"
		}
	}
	return ""
}

// TestNoSendUnderSessionLocks drives every exported entry point of Host,
// docHost and Client over the simulator, with a lock probe on every
// endpoint: joins, posts, presence changes with their flush, both mode
// switches with a poll between, a host-authored item and a rejoin. The host
// answers an item from inside OnItem, as the daemon's OT integration does,
// and each client answers the first item pushed to it from inside its own
// OnItem. Every send must run with Host.mu, every docHost.mu and Client.mu
// released.
func TestNoSendUnderSessionLocks(t *testing.T) {
	sim := netsim.New(1, netsim.LANLink)
	sends := make(map[string]int)
	total := 0
	probe := func(id string) *lockProbe {
		return &lockProbe{Endpoint: fabric.FromSim(sim.MustAddNode(id)), sends: sends}
	}
	hp := probe("host")
	h := NewHost(hp, Synchronous, sim.Now)
	hp.held = h.heldLock
	var notes *docHost // the document, once the first join has opened it
	h.OnItem = func(_ string, it Item) {
		if it.Body == "ping" {
			notes.PostLocal("chat", "pong")
		}
	}
	ids := []string{"u00", "u01", "u02"}
	c := make(map[string]*Client)
	for _, id := range ids {
		p := probe(id)
		cl := NewClientForDoc(p, "host", "notes")
		p.held = func() string {
			total++
			if locked(&cl.mu) {
				return "Client.mu"
			}
			return ""
		}
		answered := false
		cl.OnItem = func(it Item) {
			if !answered && it.From != id {
				answered = true
				_ = cl.Post("chat", "reply from "+id, sim.Now())
			}
		}
		cl.OnJoined = func(Mode, []string) {}
		cl.OnPresence = func(string, Presence) {}
		c[id] = cl
	}
	steps := []struct {
		name string
		run  func()
	}{
		{"Join", func() {
			for _, id := range ids {
				_ = c[id].Join(sim.Now())
			}
			sim.Run()
			notes = h.Host("notes")
		}},
		{"Post", func() { _ = c["u00"].Post("chat", "ping", sim.Now()) }},
		{"SetPresence", func() {
			_ = c["u01"].SetPresence(Away, sim.Now())
			sim.Run()
			_ = c["u00"].Post("chat", "while u01 is away", sim.Now())
			sim.Run()
			_ = c["u01"].SetPresence(Active, sim.Now())
		}},
		{"SetMode and Poll", func() {
			notes.SetMode(Asynchronous)
			sim.Run()
			_ = c["u02"].Post("chat", "async", sim.Now())
			sim.Run()
			for _, id := range ids {
				_ = c[id].Poll(sim.Now())
			}
			sim.Run()
			notes.SetMode(Synchronous)
		}},
		{"PostLocal", func() { notes.PostLocal("chat", "from the host") }},
		{"Leave and rejoin", func() {
			_ = c["u02"].Leave(sim.Now())
			sim.Run()
			_ = c["u00"].Post("chat", "while u02 is gone", sim.Now())
			sim.Run()
			_ = c["u02"].Join(sim.Now())
		}},
	}
	for _, s := range steps {
		s.run()
		sim.Run()
		if len(sends) > 0 {
			t.Errorf("%s: sends under %v", s.name, sends)
			clear(sends)
		}
	}
	if got := notes.LogLen(); got != 9 || total == 0 {
		t.Errorf("the document logged %d items and the clients sent %d frames, want 9 items", got, total)
	}
}

// TestAccessorsDuringTCPTraffic reads the host's, a document's and the
// clients' accessors, each on a goroutine of its own, while live TCP traffic
// runs: bob posts 200 items that the host pushes to alice, and carol sends
// 200 joins for a document this host does not own. Under -race an accessor
// that reads session state without its lock is a reported data race.
func TestAccessorsDuringTCPTraffic(t *testing.T) {
	const n = 200
	book := transport.NewAddressBook()
	start := time.Now()
	h := NewHost(tcpEndpoint(t, "host", book), Synchronous, func() time.Duration { return time.Since(start) })
	h.Owns = func(doc string) bool { return doc != "elsewhere" }
	joined := make(chan struct{}, 2)
	client := func(id, doc string) *Client {
		c := NewClientForDoc(tcpEndpoint(t, id, book), "host", doc)
		c.OnJoined = func(Mode, []string) { joined <- struct{}{} }
		return c
	}
	alice, bob, carol := client("alice", "notes"), client("bob", "notes"), client("carol", "elsewhere")
	for _, c := range []*Client{alice, bob} {
		if err := c.Join(0); err != nil {
			t.Fatal(err)
		}
		select {
		case <-joined:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: join timed out", c.ID())
		}
	}
	notes := h.Host("notes")
	reads := []func(){
		func() { _ = h.Rejected() }, func() { _ = h.Docs() },
		func() { _ = notes.Stats() }, func() { _ = notes.LogLen() },
	}
	for _, c := range []*Client{alice, bob, carol} {
		reads = append(reads, func() { _ = c.LastSeq() }, func() { _ = c.Joined() }, func() { _ = c.Mode() })
	}
	stop := poll(reads...)
	defer stop()
	for i := 0; i < n; i++ {
		if err := bob.Post("chat", fmt.Sprint(i), 0); err != nil {
			t.Fatal(err)
		}
		if err := carol.Join(0); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); alice.LastSeq() < n || h.Rejected() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("alice saw %d of %d items and the host rejected %d of %d joins", alice.LastSeq(), n, h.Rejected(), n)
		}
	}
}

// poll calls each read in a loop, on a goroutine of its own, until stop is
// called. A goroutine takes no lock but the ones its read takes, so under
// -race a read that skips its lock is unordered with every write made after
// the poll began, and is reported.
func poll(reads ...func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				read()
				runtime.Gosched()
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}
