package lint

import (
	"slices"
	"strings"
	"testing"
)

// loadConc builds the module view of the chansubst fixture.
func loadConc(t *testing.T) *Module {
	t.Helper()
	return NewModule([]*Package{fixturePkg(t, fixture{"chansubst", substPkg})})
}

func findFunc(t *testing.T, m *Module, name string) *modFunc {
	t.Helper()
	for _, mf := range m.byName {
		if mf.obj.Name() == name {
			return mf
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

const substPkg = "repro/internal/fixture/chansubst"

// TestConcRetMake covers constructor-returned channels: a direct
// `return make(chan T)`, a wrapping composite literal one layer up, and a
// constructor chain deeper than any fixed round count.
func TestConcRetMake(t *testing.T) {
	m := loadConc(t)
	if got := findFunc(t, m, "newOut").retMake; got != chanUnbuffered {
		t.Errorf("newOut retMake = %d, want chanUnbuffered", got)
	}
	ci := m.chans[substPkg+".relay.out"]
	if ci == nil {
		t.Fatal("no chanInfo for relay.out")
	}
	if !ci.unbuffered || ci.buffered {
		t.Errorf("relay.out unbuffered=%v buffered=%v, want true/false (constructor chain)", ci.unbuffered, ci.buffered)
	}
	if len(ci.sends) != 1 || ci.sends[0].mf.obj.Name() != "produce" {
		t.Errorf("relay.out sends = %v, want one site in produce", ci.sends)
	}
	if len(ci.closes) != 1 || !ci.closes[0].substituted || ci.closes[0].via != "closeIt" {
		t.Errorf("relay.out closes = %+v, want one substituted site via closeIt", ci.closes)
	}
	// mk1 → … → mk6 is declared callers-first: each round classifies one
	// more link, and only a driver that runs to the fixpoint reaches mk1.
	if ci := m.chans[substPkg+".deep.in"]; ci == nil || !ci.unbuffered || ci.buffered {
		t.Errorf("deep.in = %+v, want unbuffered through the mk1…mk6 chain", ci)
	}
}

// TestConcPkgVarChannel covers package-level channel variables.
func TestConcPkgVarChannel(t *testing.T) {
	m := loadConc(t)
	ci := m.chans[substPkg+".hop"]
	if ci == nil {
		t.Fatal("no chanInfo for package var hop")
	}
	if !ci.unbuffered {
		t.Error("hop should be unbuffered")
	}
	if len(ci.sends) != 1 || ci.sends[0].mf.obj.Name() != "feedHop" {
		t.Errorf("hop sends = %v, want one site in feedHop", ci.sends)
	}
}

// TestConcRecursionConverges is the fixpoint-termination regression test:
// mutually recursive pingA/pingB and self-recursive pipe must produce
// converged summaries (the test completing at all proves termination; the
// assertions pin the facts that must survive the cycle).
func TestConcRecursionConverges(t *testing.T) {
	m := loadConc(t)
	a := findFunc(t, m, "pingA")
	if _, ok := a.ops[chanFactKey(chClose, "$param:0")]; !ok {
		t.Errorf("pingA ops = %v, want close|$param:0", a.ops)
	}
	b := findFunc(t, m, "pingB")
	f, ok := b.ops[chanFactKey(chClose, "$param:0")]
	if !ok {
		t.Fatalf("pingB ops = %v, want close|$param:0 inherited from pingA", b.ops)
	}
	if !strings.Contains(f.via, "pingA") {
		t.Errorf("pingB close fact via = %q, want it to name pingA", f.via)
	}
	pipe := findFunc(t, m, "pipe")
	f, ok = pipe.ops[chanFactKey(chClose, substPkg+".echo.stop")]
	if !ok {
		t.Fatalf("pipe ops = %v, want close of echo.stop through closeIt", pipe.ops)
	}
	if !strings.Contains(f.via, "closeIt") {
		t.Errorf("pipe close fact via = %q, want it to name closeIt", f.via)
	}
}

// TestConcMethodValue: handing a method around as a value must not confuse
// the graph — produce keeps its send fact, and nothing is attributed to
// methodValue.
func TestConcMethodValue(t *testing.T) {
	m := loadConc(t)
	prod := findFunc(t, m, "produce")
	if _, ok := prod.ops[chanFactKey(chSend, substPkg+".relay.out")]; !ok {
		t.Errorf("produce ops = %v, want send on relay.out", prod.ops)
	}
	mv := findFunc(t, m, "methodValue")
	if len(mv.ops) != 0 {
		t.Errorf("methodValue ops = %v, want none (a method value is not a call)", mv.ops)
	}
}

// TestRecursiveLockSummaries pins the lock summaries of self-recursive
// functions. A call into the caller's own call cycle applies no lock
// effect, as a loop back-edge carries none, so each summary is one level's
// worth: what the body does around the recursive call. A fixpoint that
// applied the callee's summary instead would grow it by one level per round
// and stop wherever its round count ran out.
func TestRecursiveLockSummaries(t *testing.T) {
	m := NewModule([]*Package{fixturePkg(t, recursionFixture)})
	mu := recursionFixture.path + ".mu"
	for _, tc := range []struct {
		name   string
		delta  int
		leaves []string
	}{
		{"grow", 1, []string{mu}},  // mu.Lock(); grow()
		{"based", 1, []string{mu}}, // mu.Lock(); if n > 0 { based(n-1) }
		{"drain", -1, nil},         // mu.Unlock(); if n > 0 { drain(n-1) }
	} {
		mf := findFunc(t, m, tc.name)
		if mf.delta != tc.delta || !slices.Equal(mf.leaves, tc.leaves) {
			t.Errorf("%s: delta=%d leaves=%v, want delta=%d leaves=%v",
				tc.name, mf.delta, mf.leaves, tc.delta, tc.leaves)
		}
		if mf.cycle == 0 {
			t.Errorf("%s: not marked as on a call cycle", tc.name)
		}
	}
}
