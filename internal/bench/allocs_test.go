package bench

import (
	"math"
	"testing"

	"repro/internal/group"
)

// TestMulticastAllocs pins the allocation count of one multicast through
// every ordering, batched and not, at 8 members: the full path from
// Multicast through flush and wireRun to receiveMsgs at every member, on
// the simulator. About 0.95/op of each row is the rig boxing its int body
// into Multicast's any; the rest is the ordering's own. Batching changes
// nothing for Causal and Unordered, whose send limit is always 1. Each row
// is the measured count ±0.05, so a new allocation per message (+1/op) or
// per delivery (+8/op) fails it.
func TestMulticastAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, c := range []struct {
		ordering group.Ordering
		batched  bool
		want     float64
	}{
		{group.FIFO, true, 0.97},
		{group.FIFO, false, 0.95},
		{group.TotalSequencer, true, 0.99},
		{group.TotalSequencer, false, 0.98},
		{group.TotalToken, true, 1.00},
		{group.TotalToken, false, 1.04},
		{group.Causal, true, 4.95},
		{group.Causal, false, 4.95},
		{group.Unordered, true, 0.95},
		{group.Unordered, false, 0.95},
	} {
		o := MulticastOptions{Members: 8, Ordering: c.ordering, Seed: 1}
		if c.batched {
			o.Batch = group.BatchConfig{MaxMsgs: 64}
		}
		got := MulticastAllocsPerOp(o, 4096)
		t.Logf("%v batched=%v: %.4f allocs/op", c.ordering, c.batched, got)
		if math.Abs(got-c.want) > 0.05 {
			t.Errorf("%v batched=%v: multicast allocates %.4f/op, want %.2f±0.05", c.ordering, c.batched, got, c.want)
		}
	}
}
