// Command experiments runs the full experiment suite (DESIGN.md §3) and
// prints one result table per figure/claim of the paper. Output is
// deterministic for a given -seed.
//
// Usage:
//
//	experiments [-seed N]
package main

import (
	"flag"
	"fmt"

	"repro/internal/exps"
)

func main() {
	seed := flag.Int64("seed", 1, "experiment RNG seed")
	flag.Parse()
	for _, e := range exps.All() {
		fmt.Println(e.Run(*seed).Render())
	}
}
