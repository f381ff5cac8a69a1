package fabric

import "time"

// Clock supplies the current time as a monotonic offset from an arbitrary
// epoch. Everything in the stack that needs "now" — session item stamping,
// for one — takes one of these instead of reading the wall clock, so the
// same code runs in virtual time under netsim (Sim.Now) and in real time
// behind a daemon.
// That injection is what lets chaos traces stay byte-identical per seed:
// cscwlint's det-time rule rejects direct time.Now reads in trace-critical
// packages.
type Clock func() time.Duration

// WallClock returns a real-time Clock measuring elapsed time since the
// call. This is the declared real-time boundary for live deployments
// (cmd/sessiond and friends); it is the one place the stack may read the
// wall clock, which is why the suppressions below are acceptable — see
// DESIGN.md, "Enforced invariants".
func WallClock() Clock {
	//lint:ignore det-time WallClock is the single real-time boundary; all other code injects a Clock
	start := time.Now()
	return func() time.Duration {
		//lint:ignore det-time see WallClock: the one sanctioned wall-clock read
		return time.Since(start)
	}
}
