package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mgmt"
	"repro/internal/netsim"
	"repro/internal/qos"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

type world struct {
	sim *netsim.Sim
	mgr *mgmt.Manager
	k   *Kernel
}

// newWorld builds London/Sydney sites plus a client node at each.
func newWorld(t *testing.T, policy mgmt.Policy) *world {
	t.Helper()
	sim := netsim.New(1, netsim.LANLink)
	for _, n := range []string{"lon", "syd", "client-lon", "client-syd"} {
		sim.MustAddNode(n)
	}
	for _, a := range []string{"lon", "client-lon"} {
		for _, b := range []string{"syd", "client-syd"} {
			sim.SetBiLink(a, b, netsim.Link{Latency: 150 * time.Millisecond})
		}
	}
	mgr := mgmt.NewManager(sim, policy, 7)
	for _, n := range []string{"lon", "syd"} {
		if err := mgr.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	k := NewKernel(sim, mgr)
	for _, n := range []string{"client-lon", "client-syd"} {
		if err := k.AttachNode(n); err != nil {
			t.Fatal(err)
		}
	}
	return &world{sim: sim, mgr: mgr, k: k}
}

func echoIface(qp qos.Params) Interface {
	return Interface{
		Name: "main",
		Type: "echo",
		QoS:  qp,
		Ops: map[string]Operation{
			"echo": func(caller, arg string) (string, error) { return caller + ":" + arg, nil },
			"fail": func(caller, arg string) (string, error) { return "", errors.New("boom") },
		},
	}
}

func TestExportImportBindInvoke(t *testing.T) {
	w := newWorld(t, mgmt.FirstFit)
	if _, err := w.k.CreateObject("svc", map[string]int{"lon": 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.k.AddInterface("svc", echoIface(qos.Params{Latency: ms(500), Jitter: ms(100)})); err != nil {
		t.Fatal(err)
	}
	if err := w.k.Export("svc", "main"); err != nil {
		t.Fatal(err)
	}
	offers, err := w.k.Import("echo", qos.Params{Latency: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Node != "lon" {
		t.Fatalf("offers = %+v", offers)
	}
	b, err := w.k.Bind("client-lon", offers[0], qos.Params{Latency: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	var gotErr error
	if err := b.Invoke("echo", "hello", func(res string, err error) { got, gotErr = res, err }); err != nil {
		t.Fatal(err)
	}
	w.sim.Run()
	if gotErr != nil || got != "client-lon:hello" {
		t.Fatalf("invoke = %q, %v", got, gotErr)
	}
	if b.Invocations != 1 {
		t.Errorf("invocations = %d", b.Invocations)
	}
	// Error propagation.
	if err := b.Invoke("fail", "", func(res string, err error) { gotErr = err }); err != nil {
		t.Fatal(err)
	}
	w.sim.Run()
	if gotErr == nil || gotErr.Error() != "boom" {
		t.Errorf("error = %v", gotErr)
	}
	// Unknown op surfaces as a reply error.
	b.Invoke("nosuch", "", func(res string, err error) { gotErr = err })
	w.sim.Run()
	if gotErr == nil {
		t.Error("unknown op should error")
	}
}

func TestImportQoSCompatibility(t *testing.T) {
	w := newWorld(t, mgmt.FirstFit)
	w.k.CreateObject("svc", nil)
	w.k.AddInterface("svc", echoIface(qos.Params{Latency: ms(500), Jitter: ms(100)}))
	w.k.Export("svc", "main")
	// Requirement tighter than the annotation: no offers.
	if _, err := w.k.Import("echo", qos.Params{Latency: ms(10)}); !errors.Is(err, ErrNoOffers) {
		t.Errorf("Import = %v", err)
	}
	if _, err := w.k.Import("nosuchtype", qos.Params{}); !errors.Is(err, ErrNoOffers) {
		t.Errorf("Import = %v", err)
	}
}

func TestBindRejectsIncompatible(t *testing.T) {
	w := newWorld(t, mgmt.FirstFit)
	off := Offer{Object: "x", Interface: "main", Type: "echo", QoS: qos.Params{Latency: ms(500)}}
	if _, err := w.k.Bind("client-lon", off, qos.Params{Latency: ms(1)}); !errors.Is(err, ErrIncompatible) {
		t.Errorf("Bind = %v", err)
	}
}

func TestBindingEventsObservable(t *testing.T) {
	w := newWorld(t, mgmt.FirstFit)
	var events []Event
	w.k.OnEvent = func(e Event) { events = append(events, e) }
	w.k.CreateObject("svc", nil)
	w.k.AddInterface("svc", echoIface(qos.Params{Latency: ms(500), Jitter: ms(100)}))
	w.k.Export("svc", "main")
	offers, _ := w.k.Import("echo", qos.Params{})
	b, err := w.k.Bind("client-lon", offers[0], qos.Params{})
	if err != nil {
		t.Fatal(err)
	}
	b.Invoke("echo", "x", func(string, error) {})
	w.sim.Run()
	b.Unbind()
	kinds := make([]EventKind, 0, len(events))
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EvBound, EvInvoke, EvReply, EvUnbound}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
	// Invocation after unbind fails.
	if err := b.Invoke("echo", "x", func(string, error) {}); !errors.Is(err, ErrUnbound) {
		t.Errorf("invoke after unbind = %v", err)
	}
}

func TestGroupAwarePlacementAffectsLatency(t *testing.T) {
	// The same service bound from Sydney: group-aware placement (Sydney
	// accessors) hosts it in Sydney; first-fit hosts it in London. Measure
	// invocation RTT through the kernel.
	measure := func(policy mgmt.Policy) time.Duration {
		w := newWorld(t, policy)
		w.k.CreateObject("svc", map[string]int{"client-syd": 100, "syd": 100})
		w.k.AddInterface("svc", echoIface(qos.Params{Latency: time.Second, Jitter: time.Second}))
		w.k.Export("svc", "main")
		offers, err := w.k.Import("echo", qos.Params{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.k.Bind("client-syd", offers[0], qos.Params{})
		if err != nil {
			t.Fatal(err)
		}
		start := w.sim.Now()
		var rtt time.Duration
		b.Invoke("echo", "x", func(string, error) { rtt = w.sim.Now() - start })
		w.sim.Run()
		return rtt
	}
	naive := measure(mgmt.FirstFit)
	aware := measure(mgmt.GroupAware)
	if aware >= naive {
		t.Errorf("group-aware RTT %v should beat first-fit %v", aware, naive)
	}
}

func TestMigrationMovesService(t *testing.T) {
	w := newWorld(t, mgmt.GroupAware)
	w.k.CreateObject("svc", map[string]int{"lon": 10})
	w.k.AddInterface("svc", echoIface(qos.Params{Latency: time.Second, Jitter: time.Second}))
	w.k.Export("svc", "main")
	if n, _ := w.k.NodeOf("svc"); n != "lon" {
		t.Fatalf("initial node = %s", n)
	}
	// Usage shifts to Sydney; rebalance migrates the cluster, and a fresh
	// import sees the new node.
	w.mgr.ResetUsage("cluster:svc")
	w.mgr.RecordAccess("cluster:svc", "syd", 1000)
	migs := w.mgr.Rebalance(ms(10))
	if len(migs) != 1 {
		t.Fatalf("migrations = %+v", migs)
	}
	offers, _ := w.k.Import("echo", qos.Params{})
	if offers[0].Node != "syd" {
		t.Errorf("offer node after migration = %s", offers[0].Node)
	}
	// The object keeps serving from its new home.
	if err := w.k.AttachNode("syd"); err != nil {
		t.Fatal(err)
	}
	b, _ := w.k.Bind("client-syd", offers[0], qos.Params{})
	var got string
	b.Invoke("echo", "post-move", func(res string, _ error) { got = res })
	w.sim.Run()
	if got != "client-syd:post-move" {
		t.Errorf("post-migration invoke = %q", got)
	}
}

func TestCreateObjectUnknowns(t *testing.T) {
	w := newWorld(t, mgmt.FirstFit)
	if err := w.k.AddInterface("ghost", Interface{Name: "x"}); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("AddInterface = %v", err)
	}
	if err := w.k.Export("ghost", "x"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Export = %v", err)
	}
	w.k.CreateObject("obj", nil)
	if err := w.k.Export("obj", "nosuch"); !errors.Is(err, ErrUnknownIface) {
		t.Errorf("Export iface = %v", err)
	}
	if _, err := w.k.NodeOf("ghost"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("NodeOf = %v", err)
	}
	if err := w.k.AttachNode("ghost-node"); err == nil {
		t.Error("attach unknown node should fail")
	}
}

func TestEventKindString(t *testing.T) {
	if EvBound.String() != "bound" || EvInvoke.String() != "invoke" ||
		EvReply.String() != "reply" || EvUnbound.String() != "unbound" {
		t.Error("event names")
	}
}

func BenchmarkInvokeRoundTrip(b *testing.B) {
	sim := netsim.New(1, netsim.LANLink)
	sim.MustAddNode("srv")
	sim.MustAddNode("cli")
	mgr := mgmt.NewManager(sim, mgmt.FirstFit, 1)
	mgr.AddNode("srv")
	k := NewKernel(sim, mgr)
	k.AttachNode("cli")
	k.CreateObject("svc", nil)
	k.AddInterface("svc", echoIface(qos.Params{Latency: time.Second, Jitter: time.Second}))
	k.Export("svc", "main")
	offers, _ := k.Import("echo", qos.Params{})
	bnd, _ := k.Bind("cli", offers[0], qos.Params{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bnd.Invoke("echo", "x", func(string, error) {})
		if i%256 == 0 {
			sim.Run()
		}
	}
	sim.Run()
}

func TestUnbindTwice(t *testing.T) {
	w := newWorld(t, mgmt.FirstFit)
	if _, err := w.k.CreateObject("svc", nil); err != nil {
		t.Fatal(err)
	}
	w.k.AddInterface("svc", echoIface(qos.Params{Latency: time.Second, Jitter: time.Second}))
	w.k.Export("svc", "main")
	offers, _ := w.k.Import("echo", qos.Params{})
	b, err := w.k.Bind("client-lon", offers[0], qos.Params{})
	if err != nil {
		t.Fatal(err)
	}
	unbound := 0
	w.k.OnEvent = func(e Event) {
		if e.Kind == EvUnbound {
			unbound++
		}
	}
	b.Unbind()
	b.Unbind() // idempotent
	if unbound != 1 {
		t.Errorf("two Unbinds emitted %d unbound events, want 1", unbound)
	}
}

func TestBindUnknownClientNode(t *testing.T) {
	w := newWorld(t, mgmt.FirstFit)
	w.k.CreateObject("svc", nil)
	w.k.AddInterface("svc", echoIface(qos.Params{Latency: time.Second, Jitter: time.Second}))
	w.k.Export("svc", "main")
	offers, _ := w.k.Import("echo", qos.Params{})
	if _, err := w.k.Bind("no-such-node", offers[0], qos.Params{}); err == nil {
		t.Error("bind from unknown node should fail")
	}
}
