// Package scope is loaded as an examples/ package: demo mains are outside
// the determinism scope, so none of this draws a diagnostic.
package scope

import (
	"math/rand"
	"time"
)

func Jitter() time.Duration {
	if rand.Intn(2) == 0 {
		return 0
	}
	return time.Since(time.Now())
}
