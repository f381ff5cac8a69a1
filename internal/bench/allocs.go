package bench

import (
	"testing"

	"repro/internal/group"
	"repro/internal/netsim"
)

// MulticastAllocsPerOp measures heap allocations per multicast through the
// full ordering path — send, sequence assignment, delivery to every member —
// using the same rig and workload shape as MulticastBench, so the number is
// directly comparable to the allocs/op column in the benchmark reports. It
// lives here rather than in package group because the rig needs netsim,
// which the protocol layer must not import.
func MulticastAllocsPerOp(o MulticastOptions, ops int) float64 {
	sim, members := multicastRig(o, netsim.LocalLink, func(group.Delivery) {})
	n := len(members)
	total := testing.AllocsPerRun(3, func() {
		for i := 0; i < ops; i++ {
			if err := members[i%n].Multicast(i, 16); err != nil {
				panic(err)
			}
			if i%1024 == 1023 {
				for _, m := range members {
					m.Flush()
				}
				sim.Run()
			}
		}
		for _, m := range members {
			m.Flush()
		}
		sim.Run()
	})
	return total / float64(ops)
}
