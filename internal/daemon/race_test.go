//go:build race

package daemon

// raceEnabled lets the allocation pins skip: the race detector's
// instrumentation allocates on its own, so counts under -race mean nothing.
const raceEnabled = true
