package bench

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// rigCost runs ops edits on a fresh daemon rig and returns the allocations
// and heap bytes per op, read from MemStats as testing.B reads them.
func rigCost(t *testing.T, eng string, ops int) (allocs, bytes float64) {
	t.Helper()
	r, err := startDaemonRig(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range ops {
		if err := r.edit(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops), float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}

// TestDaemonTCPSteadyState: the daemon_tcp rows price an edit, not the
// length of the run. At 200 and at 2 000 ops the allocations per op differ
// by at most 1 and the bytes per op by at most 25 %. The bytes bound is
// wider than the allocations' because every replica and the host keep their
// history (CRDT elements and tombstones, the session log, the OT commit
// log), and those grow in steps: a 200-op window holds one step or none, so
// its bytes per op swing by about a fifth around the long-run figure. A rig
// whose document grew with the run would miss the bound by several times.
func TestDaemonTCPSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, eng := range []string{engine.CRDT, engine.OT} {
		smallAllocs, smallBytes := rigCost(t, eng, 200)
		largeAllocs, largeBytes := rigCost(t, eng, 2000)
		t.Logf("%s: %.1f → %.1f allocs/op, %.0f → %.0f B/op", eng, smallAllocs, largeAllocs, smallBytes, largeBytes)
		if math.Abs(largeAllocs-smallAllocs) > 1 {
			t.Errorf("%s: %.1f allocs/op at 200 ops, %.1f at 2000", eng, smallAllocs, largeAllocs)
		}
		if math.Abs(largeBytes-smallBytes) > 0.25*smallBytes {
			t.Errorf("%s: %.0f B/op at 200 ops, %.0f at 2000", eng, smallBytes, largeBytes)
		}
	}
}
