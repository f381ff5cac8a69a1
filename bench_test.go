package repro

// One benchmark per experiment in DESIGN.md §3: each iteration regenerates
// the experiment's full result table over the virtual-time simulator, so
// ns/op is the cost of reproducing that figure, and the suite doubles as a
// macro-benchmark of the whole middleware stack. Run with:
//
//	go test -bench=. -benchmem
import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/exps"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/transport"
)

func benchExperiment(b *testing.B, run func(seed int64) exps.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := run(int64(i + 1))
		if len(tb.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkF1SpaceTimeMatrix regenerates Figure 1 (space-time matrix
// latencies and the seamless-transition cost).
func BenchmarkF1SpaceTimeMatrix(b *testing.B) { benchExperiment(b, exps.RunF1SpaceTime) }

// BenchmarkF2WallsVsFlow regenerates Figure 2 (serialisable walls vs
// cooperative information flow).
func BenchmarkF2WallsVsFlow(b *testing.B) { benchExperiment(b, exps.RunF2WallsVsFlow) }

// BenchmarkE3LockGranularity regenerates the lock-granularity sweep.
func BenchmarkE3LockGranularity(b *testing.B) { benchExperiment(b, exps.RunE3Granularity) }

// BenchmarkE4ConcurrencyMechanisms regenerates the six-mechanism
// concurrency-control comparison.
func BenchmarkE4ConcurrencyMechanisms(b *testing.B) { benchExperiment(b, exps.RunE4Mechanisms) }

// BenchmarkE5AccessControl regenerates the access-control comparison.
func BenchmarkE5AccessControl(b *testing.B) { benchExperiment(b, exps.RunE5Access) }

// BenchmarkE6StreamQoS regenerates the continuous-media QoS suite.
func BenchmarkE6StreamQoS(b *testing.B) { benchExperiment(b, exps.RunE6StreamQoS) }

// BenchmarkE7GroupCommunication regenerates the multicast-ordering and
// group-RPC measurements.
func BenchmarkE7GroupCommunication(b *testing.B) { benchExperiment(b, exps.RunE7Groups) }

// BenchmarkE8Placement regenerates the placement/migration comparison.
func BenchmarkE8Placement(b *testing.B) { benchExperiment(b, exps.RunE8Placement) }

// BenchmarkE9Mobility regenerates the disconnected-operation suite.
func BenchmarkE9Mobility(b *testing.B) { benchExperiment(b, exps.RunE9Mobility) }

// BenchmarkE10WorkflowPrescriptiveness regenerates the workflow-model
// comparison.
func BenchmarkE10WorkflowPrescriptiveness(b *testing.B) { benchExperiment(b, exps.RunE10Workflow) }

// BenchmarkA1AwarenessAblation regenerates the awareness-weighting
// ablation.
func BenchmarkA1AwarenessAblation(b *testing.B) { benchExperiment(b, exps.RunA1AwarenessAblation) }

// BenchmarkA2HoardPolicies regenerates the hoard-policy ablation.
func BenchmarkA2HoardPolicies(b *testing.B) { benchExperiment(b, exps.RunA2HoardPolicies) }

// BenchmarkFabricSendRecv prices the fabric seam itself: one message sent
// and delivered over the simulator, with a bare endpoint and with a
// three-deep chain of trace taps. The delta is the per-message cost of a
// middleware chain.
func BenchmarkFabricSendRecv(b *testing.B) {
	run := func(b *testing.B, mws func() []fabric.Middleware) {
		sim := netsim.New(1, netsim.LocalLink)
		src := fabric.Wrap(fabric.FromSim(sim.MustAddNode("a")), mws()...)
		dst := fabric.Wrap(fabric.FromSim(sim.MustAddNode("b")), mws()...)
		recv := 0
		dst.SetHandler(func(from string, payload any, size int) { recv++ })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.Send("b", i, 8); err != nil {
				b.Fatal(err)
			}
			if i%1024 == 1023 {
				sim.Run() // drain the event queue in batches
			}
		}
		sim.Run()
		if recv != b.N {
			b.Fatalf("delivered %d of %d", recv, b.N)
		}
	}
	b.Run("bare", func(b *testing.B) {
		run(b, func() []fabric.Middleware { return nil })
	})
	b.Run("tap3", func(b *testing.B) {
		run(b, func() []fabric.Middleware {
			return []fabric.Middleware{fabric.Tap(nil, nil), fabric.Tap(nil, nil), fabric.Tap(nil, nil)}
		})
	})
	// Over loopback TCP the codec and the socket are in the path (allocs/op
	// is the figure to watch).
	b.Run("tcp-binary", func(b *testing.B) {
		codec := session.NewWireCodec()
		fabric.RegisterBase(codec)
		book := transport.NewAddressBook()
		var eps [2]*fabric.TransportEndpoint
		for i, id := range []string{"a", "b"} {
			tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
			if err != nil {
				b.Fatal(err)
			}
			eps[i] = fabric.FromTransport(tep, codec)
		}
		src, dst := eps[0], eps[1]
		var recv atomic.Uint64
		dst.SetHandler(func(from string, payload any, size int) { recv.Add(1) })
		payload := &session.MsgPost{Doc: "doc-7", From: "a", Kind: "edit", Body: "the quick brown fox"}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.Send("b", payload, 64); err != nil {
				b.Fatal(err)
			}
		}
		for recv.Load() < uint64(b.N) {
			time.Sleep(20 * time.Microsecond)
		}
		b.StopTimer()
		_ = src.Close()
		_ = dst.Close()
		if d := src.Dropped() + dst.Dropped(); d != 0 {
			b.Fatalf("%d frames dropped", d)
		}
	})
}

// BenchmarkGroupSequencerTCP prices one TotalSequencer multicast delivered
// at all four members over loopback TCP: the ordering layer on the real
// substrate, the in-module row for the end-to-end group_seq_1x4 workload.
func BenchmarkGroupSequencerTCP(b *testing.B) { bench.GroupSequencerTCPBench()(b) }

// BenchmarkDaemonTCP prices one edit end to end over loopback TCP: a daemon
// and four participants in this process, one edit in flight at a time, the
// in-module rows for the end-to-end relay_1x4 (relay: the CRDT daemon only
// relays) and ot_1x4 (ot: it relays and commits) workloads.
func BenchmarkDaemonTCP(b *testing.B) {
	b.Run("relay", bench.DaemonTCPBench(engine.CRDT))
	b.Run("ot", bench.DaemonTCPBench(engine.OT))
}
