package exps

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden from this run")

// TestExperimentsGolden pins every table of All() at seed 1, byte for byte,
// against testdata/experiments.golden — the exact stdout of `go run
// ./cmd/experiments -seed 1`. The shape tests accept any numbers with the
// right ordering; this catches a refactor of the harness that moves one.
// `make experiments-golden` (-update) rewrites the file.
func TestExperimentsGolden(t *testing.T) {
	var got strings.Builder
	for _, e := range All() {
		got.WriteString(e.Run(1).Render() + "\n")
	}
	golden := filepath.Join("testdata", "experiments.golden")
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
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from %s; if the change is intended: make experiments-golden\n got: %s\nwant: %s",
				i+1, golden, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%d lines, %s has %d; if the change is intended: make experiments-golden", len(gotLines), golden, len(wantLines))
}
