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
	"strings"
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
	testing.Init() // a failing row's benchmark reads the test flags
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
	// testing.Benchmark discards what b.Fatal writes, so a row defined here
	// fails through stop, which keeps the error for measure to report.
	var failure error
	stop := func(b *testing.B, err error) {
		failure = err
		b.FailNow()
	}
	var failed []string
	measure := func(name string, msgsPerOp int, fn func(*testing.B)) (bench.Result, bool) {
		fmt.Fprintf(os.Stderr, "bench %s...\n", name)
		failure = nil
		res, err := rep.Add(name, msgsPerOp, fn)
		if err != nil {
			if failure != nil {
				err = fmt.Errorf("%w: %w", err, failure)
			}
			fmt.Fprintf(os.Stderr, "  %v\n", err)
			failed = append(failed, err.Error())
		}
		return res, err == nil
	}
	add := func(name string, fn func(*testing.B)) {
		if res, ok := measure(name, 1, fn); ok {
			fmt.Fprintf(os.Stderr, "  %d iters, %.0f ns/op, %.0f msgs/sec, %.0f allocs/op\n",
				res.Iters, res.NsPerOp, res.MsgsPerSec, res.AllocsPerOp)
		}
	}
	// finish writes the report, unless a row failed: then the run fails
	// and says, for each row, what it stopped on.
	finish := func() error {
		if len(failed) > 0 {
			return fmt.Errorf("cscwbench: failed rows:\n%s", strings.Join(failed, "\n"))
		}
		return writeReport(rep, *out)
	}

	// Lint-suite timing row (run from the module root, like `make lint`):
	// the full-suite wall cost. `make bench-lint` writes it alone into the
	// dated BENCH_<date>-lint.json.
	if *lintOnly {
		add("lint_wall_ms", lintWall(stop))
		return finish()
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
		add("fabric_tcp_send_recv_binary", tcpSendRecv(reg, stop))
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
		if drain, ok := measure("netsim_drain_10k_1m", 1_000_000, bench.NetsimDrainBench(10_000, 1_000_000, *seed)); ok {
			fmt.Fprintf(os.Stderr, "  %d iters, %.0f ns/op, %.0f events/sec\n",
				drain.Iters, drain.NsPerOp, drain.MsgsPerSec)
		}
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
		add("lint_wall_ms", lintWall(stop))
	}

	return finish()
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
// analyzer stage — over the module containing the working directory. A
// failure goes to stop.
func lintWall(stop func(*testing.B, error)) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lint.CheckModule("."); err != nil {
				stop(b, err)
			}
		}
	}
}

// tcpSendRecv prices one message through the full byte-transport path: a
// typed payload framed by the codec, written to a loopback TCP connection,
// decoded and delivered on the far side. A failure goes to stop.
func tcpSendRecv(codec *fabric.Codec, stop func(*testing.B, error)) func(b *testing.B) {
	return func(b *testing.B) {
		book := transport.NewAddressBook()
		var eps [2]*fabric.TransportEndpoint
		for i, id := range []string{"a", "b"} {
			tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
			if err != nil {
				stop(b, err)
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
				stop(b, err)
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
			stop(b, fmt.Errorf("%d frames dropped", d))
		}
	}
}
