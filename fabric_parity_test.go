package repro

// Cross-substrate parity: the same cooperative scenario — a totally
// observable group multicast plus a session edit exchange — is run once
// over the simulator (fabric.FromSim) and once over the in-memory byte
// transport (fabric.FromTransport + the wire codec). The fabric seam promises
// the layers above cannot tell the difference: delivery orders and final
// document state must match exactly.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/transport"
)

// parityResult captures everything the scenario observes.
type parityResult struct {
	Orders  map[string][]string // group member -> deliveries as "from:body"
	HostDoc []string            // session items in host log order
	Alice   []string            // items pushed to alice
	Bob     []string            // items pushed to bob
}

// paritySubstrate abstracts the two fabrics under test.
type paritySubstrate struct {
	endpoint func(id string) fabric.Endpoint
	// settle blocks until cond holds (netsim: drain virtual time; hub: poll
	// real time with a deadline).
	settle func(t *testing.T, what string, cond func() bool)
}

// runParityScenario drives the scenario over one substrate. Steps are
// separated by settle barriers so the observable order is deterministic on
// any correct transport; only an ordering bug can make substrates diverge.
func runParityScenario(t *testing.T, sub paritySubstrate) parityResult {
	t.Helper()
	var mu sync.Mutex
	res := parityResult{Orders: make(map[string][]string)}

	// --- Group: three FIFO members.
	gids := []string{"g0", "g1", "g2"}
	members := make(map[string]*group.Member)
	for _, id := range gids {
		id := id
		m, err := group.NewMember(group.Config{
			Endpoint: sub.endpoint(id),
			Ordering: group.FIFO,
			Deliver: func(d group.Delivery) {
				mu.Lock()
				res.Orders[id] = append(res.Orders[id], fmt.Sprintf("%s:%v", d.From, d.Body))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		members[id] = m
	}
	v := group.NewView(1, gids)
	for _, m := range members {
		m.InstallView(v)
	}

	delivered := func(n int) func() bool {
		return func() bool {
			mu.Lock()
			defer mu.Unlock()
			for _, id := range gids {
				if len(res.Orders[id]) < n {
					return false
				}
			}
			return true
		}
	}
	if err := members["g0"].Multicast("edit-1", 16); err != nil {
		t.Fatal(err)
	}
	if err := members["g0"].Multicast("edit-2", 16); err != nil {
		t.Fatal(err)
	}
	sub.settle(t, "g0 multicasts", delivered(2))
	if err := members["g1"].Multicast("edit-3", 16); err != nil {
		t.Fatal(err)
	}
	sub.settle(t, "g1 multicast", delivered(3))

	// --- Session: host plus two clients editing a shared document.
	host := session.NewHost(sub.endpoint("host"), session.Synchronous, func() time.Duration { return 0 })
	host.OnItem = func(_ string, it session.Item) {
		mu.Lock()
		res.HostDoc = append(res.HostDoc, it.Body)
		mu.Unlock()
	}
	clients := map[string]*session.Client{}
	for _, id := range []string{"alice", "bob"} {
		id := id
		c := session.NewClientForDoc(sub.endpoint(id), "host", "")
		c.OnItem = func(it session.Item) {
			mu.Lock()
			if id == "alice" {
				res.Alice = append(res.Alice, it.Body)
			} else {
				res.Bob = append(res.Bob, it.Body)
			}
			mu.Unlock()
		}
		clients[id] = c
	}
	if err := clients["alice"].Join(0); err != nil {
		t.Fatal(err)
	}
	sub.settle(t, "alice join", clients["alice"].Joined)
	if err := clients["bob"].Join(0); err != nil {
		t.Fatal(err)
	}
	sub.settle(t, "bob join", clients["bob"].Joined)

	post := func(who, body string, wantDoc int) {
		if err := clients[who].Post("edit", body, 0); err != nil {
			t.Fatal(err)
		}
		sub.settle(t, body, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(res.HostDoc) >= wantDoc
		})
	}
	post("alice", "insert 'shared'", 1)
	post("bob", "append 'document'", 2)
	post("alice", "delete 'typo'", 3)
	sub.settle(t, "pushes drained", func() bool {
		mu.Lock()
		defer mu.Unlock()
		// Each client sees the two items posted by the other.
		return len(res.Alice) >= 1 && len(res.Bob) >= 2
	})

	mu.Lock()
	defer mu.Unlock()
	return res
}

func TestFabricSubstrateParity(t *testing.T) {
	// Substrate 1: discrete-event simulator.
	sim := netsim.New(1, netsim.LocalLink)
	overSim := paritySubstrate{
		endpoint: func(id string) fabric.Endpoint {
			return fabric.FromSim(sim.MustAddNode(id))
		},
		settle: func(t *testing.T, what string, cond func() bool) {
			t.Helper()
			sim.Run()
			if !cond() {
				t.Fatalf("netsim: %s never settled", what)
			}
		},
	}

	// Substrate 2: in-memory byte transport with the shared wire codec.
	hub := transport.NewHub()
	codec := fabric.NewCodec()
	group.RegisterWire(codec)
	session.RegisterWire(codec)
	overMem := paritySubstrate{
		endpoint: func(id string) fabric.Endpoint {
			return fabric.FromTransport(hub.MustAttach(id), codec)
		},
		settle: func(t *testing.T, what string, cond func() bool) {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for !cond() {
				if time.Now().After(deadline) {
					t.Fatalf("hub: %s never settled", what)
				}
				time.Sleep(time.Millisecond)
			}
		},
	}

	got := runParityScenario(t, overSim)
	want := runParityScenario(t, overMem)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("substrates diverged:\n netsim: %+v\n    mem: %+v", got, want)
	}
	// And the scenario itself did what it claims.
	wantOrder := []string{"g0:edit-1", "g0:edit-2", "g1:edit-3"}
	for id, order := range got.Orders {
		if !reflect.DeepEqual(order, wantOrder) {
			t.Errorf("%s delivery order = %v, want %v", id, order, wantOrder)
		}
	}
	wantDoc := []string{"insert 'shared'", "append 'document'", "delete 'typo'"}
	if !reflect.DeepEqual(got.HostDoc, wantDoc) {
		t.Errorf("host doc = %v, want %v", got.HostDoc, wantDoc)
	}
}
