package chaos

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// seedFlag pins the matrix to one seed — the replay hook printed on every
// violation. Zero means the fixed CI seed.
var seedFlag = flag.Int64("chaos.seed", 0, "run chaos scenarios with this seed (0 = fixed CI seed)")

// ciSeed is the fixed seed the short-mode matrix runs under.
const ciSeed = 7

func matrixSeed() int64 {
	if *seedFlag != 0 {
		return *seedFlag
	}
	return ciSeed
}

// TestChaosScenarios is the CI matrix: every non-broken scenario once,
// under the fixed seed (or -chaos.seed for a replay).
func TestChaosScenarios(t *testing.T) {
	for _, s := range Matrix() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			r, err := Run(s.Name, matrixSeed())
			if err != nil {
				t.Fatal(err)
			}
			if testing.Verbose() {
				t.Logf("trace:\n%s", r.Trace)
			}
			if !r.OK() {
				t.Errorf("%s", r.Report())
			}
		})
	}
}

// TestChaosDeterminism: the same seed must produce a byte-identical event
// trace — the property that makes every violation replayable.
func TestChaosDeterminism(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			a, err := Run(s.Name, ciSeed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(s.Name, ciSeed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Trace, b.Trace) {
				t.Fatalf("same seed, different traces:\n--- first\n%s\n--- second\n%s", a.Trace, b.Trace)
			}
			c, err := Run(s.Name, ciSeed+1)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a.Trace, c.Trace) {
				t.Fatalf("different seeds produced identical traces; the seed is not reaching the world")
			}
		})
	}
}

// TestChaosViolationReporting drives the deliberately broken scenario and
// checks the harness's own failure path: the violation must be detected and
// the report must carry the seed and a replay command.
func TestChaosViolationReporting(t *testing.T) {
	const seed = 99
	r, err := Run("induced-drop-blindness", seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.OK() {
		t.Fatal("broken scenario reported no violation; the checkers are blind")
	}
	rep := r.Report()
	for _, want := range []string{
		"INVARIANT VIOLATION",
		fmt.Sprintf("seed %d", seed),
		fmt.Sprintf("-chaos.seed=%d", seed),
		fmt.Sprintf("cscwctl chaos -scenario induced-drop-blindness -seed %d", seed),
		"[no-loss]",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(string(r.Trace), "VIOLATION [no-loss]") {
		t.Errorf("trace does not record the violation:\n%s", r.Trace)
	}
	for _, s := range Matrix() {
		if s.Broken {
			t.Errorf("broken scenario %q leaked into the CI matrix", s.Name)
		}
	}
}

// TestChaosAccountingDetectsUndrainedWork guards the accounting checker
// itself: a world whose simulator still holds events must be flagged, not
// silently reconciled.
func TestChaosAccountingDetectsUndrainedWork(t *testing.T) {
	w := newWorld(1)
	w.Endpoint("a")
	w.Endpoint("b")
	w.Sim.At(5_000_000, func() {}) // pending event, never drained
	w.checkAccounting()
	if len(w.violations) == 0 {
		t.Fatal("undrained simulator passed the accounting check")
	}
}

// TestChaosAccountingEquations balances a small world that uses every
// ledger bucket — a fault drop, a held delivery, a send error and a
// delivery before the handler — and then checks that a count off by one
// trips the equation that holds it, and only that one.
func TestChaosAccountingEquations(t *testing.T) {
	w := newWorld(1)
	drop, held, sink, late, dead := w.node("drop"), w.node("held"), w.node("sink"), w.node("late"), w.node("dead")
	drop.dropProb = 0.5
	held.hold = 5 * time.Millisecond
	sink.SetHandler(func(string, any, int) {})
	held.SetHandler(func(string, any, int) {})
	for i := 0; i < 20; i++ {
		_ = drop.Send("sink", i, 8)
		_ = sink.Send("held", i, 8)
	}
	// A crashed sender's send fails, and netsim counts it as sent and
	// dropped.
	w.Sim.Crash("dead")
	if err := dead.Send("sink", 0, 8); err == nil {
		t.Fatal("send from a crashed node succeeded")
	}
	// late has no handler while these arrive: each is a fabric adapter drop.
	for i := 0; i < 3; i++ {
		_ = sink.Send("late", i, 8)
	}
	w.Sim.Run()
	if d := late.base.Dropped(); d != 3 {
		t.Fatalf("late's adapter dropped %d deliveries before its handler, want 3", d)
	}
	late.SetHandler(func(string, any, int) {})
	w.Run()
	if len(w.violations) != 0 {
		t.Fatalf("balanced world reported %v", w.violations)
	}
	if drop.faultDrops == 0 || held.stalled == 0 || dead.sendErrs == 0 {
		t.Fatalf("a bucket went unused: faultdrops=%d stalled=%d senderrs=%d",
			drop.faultDrops, held.stalled, dead.sendErrs)
	}

	for _, tc := range []struct {
		name     string
		count    *uint64
		equation string
	}{
		{"faultDrops", &drop.faultDrops, "app sends"},
		{"sent", &sink.sent, "app sends"},
		{"recvd", &held.recvd, "netsim delivered"},
	} {
		*tc.count++
		w.violations = nil
		w.checkAccounting()
		*tc.count--
		if len(w.violations) != 1 || w.violations[0].Invariant != "drop-accounting" ||
			!strings.HasPrefix(w.violations[0].Detail, tc.equation) {
			t.Errorf("%s off by one: violations %v, want one drop-accounting %q", tc.name, w.violations, tc.equation)
		}
	}

	// A send to an unknown node errors before netsim sees it, so no netsim
	// bucket holds it: the ledger reports it as an unaccounted app send.
	if err := sink.Send("nobody", 0, 8); err == nil {
		t.Fatal("send to an unknown node succeeded")
	}
	w.violations = nil
	w.checkAccounting()
	if len(w.violations) != 1 || !strings.HasPrefix(w.violations[0].Detail, "app sends") {
		t.Errorf("send to an unknown node: violations %v, want one \"app sends\"", w.violations)
	}
}

// TestStallVirtualTimer: a held node's deliveries reach its handler exactly
// hold after they arrive, in arrival order, and count as received only
// when released.
func TestStallVirtualTimer(t *testing.T) {
	w := newWorld(1)
	a, b := w.node("a"), w.node("b")
	w.Sim.SetLink("a", "b", netsim.LocalLink)
	const hold = 40 * time.Millisecond
	b.hold = hold

	type arrival struct {
		n  int
		at time.Duration
	}
	var got []arrival
	b.SetHandler(func(_ string, payload any, _ int) {
		got = append(got, arrival{payload.(int), w.Sim.Now()})
	})
	for i := 0; i < 3; i++ {
		if err := a.Send("b", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	w.Sim.At(hold/2, func() {
		if b.stalled != 3 || b.recvd != 0 {
			t.Errorf("mid-hold: stalled=%d recvd=%d, want 3 and 0", b.stalled, b.recvd)
		}
	})
	w.Run()

	if b.stalled != 3 || b.recvd != 3 || len(got) != 3 {
		t.Fatalf("stalled=%d recvd=%d delivered=%d, want 3 each", b.stalled, b.recvd, len(got))
	}
	for i, g := range got {
		if g.n != i {
			t.Fatalf("delivery %d carried payload %d: order not preserved (%v)", i, g.n, got)
		}
		if want := netsim.LocalLink.Latency + hold; g.at != want {
			t.Fatalf("delivery %d at %v, want exactly %v", i, g.at, want)
		}
	}
	if len(w.violations) != 0 {
		t.Fatalf("violations: %v", w.violations)
	}
}

// TestChaosSoak sweeps every scenario over many seeds. Gated behind
// CHAOS_SOAK (a seed count) because it multiplies the matrix cost.
func TestChaosSoak(t *testing.T) {
	n, _ := strconv.Atoi(os.Getenv("CHAOS_SOAK"))
	if n <= 0 {
		t.Skip("set CHAOS_SOAK=<seed count> to run the soak sweep")
	}
	for _, s := range Matrix() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(n); seed++ {
				r, err := Run(s.Name, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !r.OK() {
					t.Errorf("seed %d:\n%s", seed, r.Report())
				}
			}
		})
	}
}
