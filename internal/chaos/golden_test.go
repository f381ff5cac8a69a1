package chaos

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/traces.golden from this run")

// TestChaosTraceGolden pins the full event trace of every scenario at the
// three CI seeds: one `scenario seed sha256` line each in
// testdata/traces.golden. TestChaosDeterminism proves a trace repeats within
// one build; this proves it repeats across builds, so a harness refactor
// that reorders one send or one node shows up as a changed line. A changed
// line is a behaviour change: replay it with `cscwctl chaos -scenario S
// -seed N -v` on both sides and read the diff before passing -update.
func TestChaosTraceGolden(t *testing.T) {
	var got strings.Builder
	for _, s := range Scenarios() {
		for _, seed := range []int64{7, 11, 23} {
			r, err := Run(s.Name, seed)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %d %x\n", s.Name, seed, sha256.Sum256(r.Trace))
		}
	}
	golden := filepath.Join("testdata", "traces.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	inWant := make(map[string]bool)
	for _, l := range strings.Split(string(want), "\n") {
		inWant[l] = true
	}
	for _, l := range strings.Split(got.String(), "\n") {
		if !inWant[l] {
			t.Errorf("not in golden: %s", l)
		}
	}
	t.Errorf("traces differ from %s; if the change is intended: go test ./internal/chaos -run TestChaosTraceGolden -update", golden)
}
