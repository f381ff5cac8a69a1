// Command experiments runs the full experiment suite (DESIGN.md §3) and
// prints one result table per figure/claim of the paper. Output is
// deterministic for a given -seed.
//
// Usage:
//
//	experiments [-seed N] [-only F1,E4,...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exps"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "experiment RNG seed")
	only := fs.String("only", "", "comma-separated experiment IDs (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ran := 0
	for _, e := range exps.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Println(e.Run(*seed).Render())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q", *only)
	}
	return nil
}
