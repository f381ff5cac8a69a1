// Command cscwbench runs the benchmark baseline (internal/bench) and
// writes a cscw-bench/v1 JSON report. The checked-in BENCH_<date>.json
// files are produced by `make bench-json`, which invokes:
//
//	cscwbench -date $(date +%F) -out BENCH_$(date +%F).json
//
// The date arrives as a flag because this command, like every other
// trace-critical package, never reads the wall clock (cscwlint det-time);
// throughput numbers come from real execution, latency percentiles from
// the deterministic virtual-time profiles.
//
// Flags:
//
//	-date YYYY-MM-DD  report date stamp (required)
//	-out FILE         output path (default stdout)
//	-seed N           simulator seed (default 1)
//	-quick            skip the slower scenarios and shrink latency samples
//	-lint-only        only the lint-suite timing rows (`make bench-lint`)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/lint"
	"repro/internal/session"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cscwbench", flag.ContinueOnError)
	date := fs.String("date", "", "report date stamp, e.g. 2026-08-08 (required)")
	out := fs.String("out", "", "output file (default stdout)")
	seed := fs.Int64("seed", 1, "simulator seed")
	quick := fs.Bool("quick", false, "skip slower scenarios, shrink latency samples")
	lintOnly := fs.Bool("lint-only", false, "run only the lint-suite timing row (lint_wall_ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *date == "" {
		return errors.New("cscwbench: -date is required (pass $(date +%F); this command never reads the wall clock)")
	}

	rep := bench.NewReport(*date, *seed)
	add := func(name string, fn func(*testing.B)) {
		fmt.Fprintf(os.Stderr, "bench %s...\n", name)
		res := rep.Add(name, 1, fn)
		fmt.Fprintf(os.Stderr, "  %d iters, %.0f ns/op, %.0f msgs/sec, %.0f allocs/op\n",
			res.Iters, res.NsPerOp, res.MsgsPerSec, res.AllocsPerOp)
	}

	// Lint-suite timing row (run from the module root, like `make lint`):
	// the full-suite wall cost. `make bench-lint` writes it alone into the
	// dated BENCH_<date>-lint.json.
	if *lintOnly {
		add("lint_wall_ms", lintWall())
		return writeReport(rep, *out)
	}

	seq := bench.MulticastOptions{Members: 8, Ordering: group.TotalSequencer, Seed: *seed}
	seqBatched := seq
	seqBatched.Batch = group.BatchConfig{MaxMsgs: 32}
	add("multicast_seq8_unbatched", bench.MulticastBench(seq))
	add("multicast_seq8_batched", bench.MulticastBench(seqBatched))
	if !*quick {
		tok := bench.MulticastOptions{Members: 8, Ordering: group.TotalToken, Seed: *seed}
		tokBatched := tok
		tokBatched.Batch = group.BatchConfig{MaxMsgs: 32}
		add("multicast_token8_unbatched", bench.MulticastBench(tok))
		add("multicast_token8_batched", bench.MulticastBench(tokBatched))
	}
	add("ot_roundtrip_c4", bench.OTBench(4))
	add("session_post_sync", bench.SessionPostBench(*seed))

	// OT-vs-CRDT shootout, clean-link throughput half: the same edit through
	// either convergence engine, binary codec and full replica fan-in
	// included.
	add("shootout_ot4_clean", bench.ShootoutBench(engine.OT, 4))
	add("shootout_crdt4_clean", bench.ShootoutBench(engine.CRDT, 4))

	reg := session.NewWireCodec()
	fabric.RegisterBase(reg)
	payload := &session.MsgItems{Doc: "doc-7", Items: []session.Item{
		{Seq: 42, From: "alice", Kind: "edit", Body: "insert the quick brown fox", At: 1234567},
	}}
	add("codec_binary_roundtrip", bench.CodecRoundTripBench(reg, payload))
	add("codec_group_packet_roundtrip", bench.GroupPacketRoundTripBench())
	if !*quick {
		add("fabric_tcp_send_recv_binary", tcpSendRecv(reg))
		add("group_seq_tcp_c4", bench.GroupSequencerTCPBench())
	}
	// One edit through a live daemon and four participants over loopback
	// TCP, the in-module rows for relay_1x4 and ot_1x4; quick runs keep them.
	add("daemon_tcp_relay", bench.DaemonTCPBench(engine.CRDT))
	add("daemon_tcp_ot", bench.DaemonTCPBench(engine.OT))

	// Topology-engine scale rows: the send+deliver hot path and the cut-set
	// partition at growing node counts, then the 10k-node acceptance drill
	// (1M events through a mid-stream partition/heal) as one timed op.
	add("netsim_scale_100", bench.NetsimScaleBench(100, *seed))
	add("netsim_scale_1k", bench.NetsimScaleBench(1_000, *seed))
	if !*quick {
		add("netsim_scale_10k", bench.NetsimScaleBench(10_000, *seed))
		add("netsim_partition_10k", bench.NetsimPartitionBench(10_000, *seed))
		fmt.Fprintln(os.Stderr, "bench netsim_drain_10k_1m...")
		drain := rep.Add("netsim_drain_10k_1m", 1_000_000, bench.NetsimDrainBench(10_000, 1_000_000, *seed))
		fmt.Fprintf(os.Stderr, "  %d iters, %.0f ns/op, %.0f events/sec\n",
			drain.Iters, drain.NsPerOp, drain.MsgsPerSec)
	}

	// Virtual-time latency profiles for the ordering hot path: batching
	// trades window latency for throughput; the report carries both sides.
	samples := 256
	if *quick {
		samples = 32
	}
	seqWindow := seqBatched
	seqWindow.Batch.Window = time.Millisecond
	fmt.Fprintln(os.Stderr, "latency profiles...")
	if err := rep.Attach("multicast_seq8_unbatched", bench.MulticastLatencies(seq, samples)); err != nil {
		return err
	}
	if err := rep.Attach("multicast_seq8_batched", bench.MulticastLatencies(seqWindow, samples)); err != nil {
		return err
	}

	// Shootout, adverse-network half: deterministic virtual-time convergence
	// runs of both engines over the same seeded lossy and partitioned links.
	edits := 200
	if *quick {
		edits = 60
	}
	for _, kind := range []string{engine.OT, engine.CRDT} {
		for _, prof := range []struct {
			tag string
			o   bench.ShootoutOptions
		}{
			{"lossy20", bench.ShootoutLossyOptions(kind, *seed, edits)},
			{"partition", bench.ShootoutPartitionOptions(kind, *seed, edits)},
		} {
			name := fmt.Sprintf("shootout_%s4_%s", kind, prof.tag)
			fmt.Fprintf(os.Stderr, "shootout %s...\n", name)
			row, err := bench.ShootoutRow(name, prof.o)
			if err != nil {
				return err
			}
			rep.Results = append(rep.Results, row)
			fmt.Fprintf(os.Stderr, "  %s\n", row.Notes)
		}
	}

	if !*quick {
		add("lint_wall_ms", lintWall())
	}

	return writeReport(rep, *out)
}

func writeReport(rep *bench.Report, out string) error {
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		return err
	}
	if out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d results)\n", out, len(rep.Results))
	}
	return nil
}

// lintWall prices one full `make lint` equivalent — load, type-check, every
// analyzer stage — over the module containing the working directory.
func lintWall() func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lint.CheckModule("."); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// tcpSendRecv prices one message through the full byte-transport path: a
// typed payload framed by the codec, written to a loopback TCP connection,
// decoded and delivered on the far side.
func tcpSendRecv(codec *fabric.Codec) func(b *testing.B) {
	return func(b *testing.B) {
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
		// The peer's reader delivers on its own goroutine; wait for the last frame.
		for recv.Load() < uint64(b.N) {
			time.Sleep(20 * time.Microsecond)
		}
		b.StopTimer()
		_ = src.Close()
		_ = dst.Close()
		if d := src.Dropped() + dst.Dropped(); d != 0 {
			b.Fatalf("%d frames dropped", d)
		}
	}
}
