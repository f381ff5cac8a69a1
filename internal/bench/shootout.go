package bench

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/session"
	"repro/internal/simworld"
	"repro/internal/workload"
)

// OT-vs-CRDT shootout: both convergence engines run in the composition
// that ships (simworld.World.Daemon: daemon.NewHost and one participant per
// site, every engine message an item of the session log), on the same
// workloads, so the report compares the algorithms in the deployment a user
// runs. Two measurements per engine:
//
//   - ShootoutBench: real-time throughput of the full edit pipeline on a
//     clean zero-latency link — generate, post, log, push, decode and
//     integrate at every participant (and, for OT, at the daemon) —
//     comparable to the other msgs/sec rows in the report.
//   - ShootoutConverge: a deterministic virtual-time run over lossy
//     (optionally partitioned) host links, reporting messages offered to
//     the wire, their exact encoded bytes under the daemon's wire codec,
//     per-edit convergence latency percentiles and the tail from last edit
//     to full convergence.

// ShootoutOptions configures a convergence run.
type ShootoutOptions struct {
	Engine string      // engine.OT or engine.CRDT
	Sites  int         // participant count; the daemon is one more node
	Edits  int         // scripted inserts (insert-only keeps progress monotone)
	Link   netsim.Link // applied between the daemon and every site
	// Tick is the recovery cadence: OT clients resend+pull, CRDT replicas
	// gossip state. Chosen well above the edit gap so steady-state traffic
	// is op-shaped, with ticks as the repair channel.
	Tick time.Duration
	// PartitionFor, when non-zero, splits the sites into two halves, the
	// daemon with the first, a quarter of the way into the edit phase and
	// heals after this long.
	PartitionFor time.Duration
	Seed         int64
}

// ShootoutResult is one convergence run's outcome.
type ShootoutResult struct {
	Converged bool
	Msgs      int // frames offered to the wire after the joins (losses included)
	Bytes     int // their encoded bytes under the daemon's wire codec
	// Latency is the per-edit convergence profile in virtual time: sample m
	// is the delay from edit m's issue until every replica has integrated at
	// least m inserts.
	Latency LatencyProfile
	// Tail is the delay from the last edit's issue to full convergence
	// (identical text and nothing pending at any replica).
	Tail time.Duration
}

const editGap = 2 * time.Millisecond

// ShootoutLossyOptions is the report's canonical lossy run: four
// participants on 2ms host links where a fifth of the traffic vanishes and
// a sixth arrives late enough to be overtaken.
func ShootoutLossyOptions(kind string, seed int64, edits int) ShootoutOptions {
	return ShootoutOptions{
		Engine: kind,
		Sites:  4,
		Edits:  edits,
		Link: netsim.Link{
			Latency: 2 * time.Millisecond, Jitter: 500 * time.Microsecond,
			Loss: 0.2, Reorder: 0.15, ReorderDelay: 8 * time.Millisecond,
		},
		Tick: 25 * time.Millisecond,
		Seed: seed,
	}
}

// ShootoutPartitionOptions is the report's canonical partition run: the
// lossless variant of the lossy link, split into two halves (the daemon in
// the first) mid-run and healed 120ms later.
func ShootoutPartitionOptions(kind string, seed int64, edits int) ShootoutOptions {
	o := ShootoutLossyOptions(kind, seed, edits)
	o.Link.Loss, o.Link.Reorder = 0, 0
	o.PartitionFor = 120 * time.Millisecond
	return o
}

// ShootoutRow runs one convergence shootout and shapes it as a report row:
// Iters is the edit count, BytesPerOp the encoded wire bytes offered per
// edit (not heap bytes — the Notes say so), and the virtual percentiles the
// per-edit convergence latency. A run that fails to converge is an error,
// never a silently partial row.
func ShootoutRow(name string, o ShootoutOptions) (Result, error) {
	res, err := ShootoutConverge(o)
	if err != nil {
		return Result{}, err
	}
	if !res.Converged {
		return Result{}, fmt.Errorf("bench: shootout %s did not converge", name)
	}
	return Result{
		Name:         name,
		Iters:        o.Edits,
		BytesPerOp:   float64(res.Bytes) / float64(o.Edits),
		P50VirtualNs: res.Latency.P50.Nanoseconds(),
		P99VirtualNs: res.Latency.P99.Nanoseconds(),
		Notes: fmt.Sprintf("virtual-time convergence run; bytes_per_op is wire bytes per edit; "+
			"%d wire msgs, %d bytes offered; full convergence %s after last edit",
			res.Msgs, res.Bytes, res.Tail),
	}, nil
}

// shootoutConfig is the daemon both halves of the shootout deploy.
func shootoutConfig(kind string) daemon.Config {
	return daemon.Config{Mode: "sync", Shards: 1, Engine: kind, Doc: "doc"}
}

// ShootoutConverge runs the scripted insert workload for one engine over a
// netsim network and measures convergence. Deterministic for a given seed.
func ShootoutConverge(o ShootoutOptions) (ShootoutResult, error) {
	if o.Sites < 2 || o.Edits < 1 || o.Tick <= 0 {
		return ShootoutResult{}, fmt.Errorf("shootout: need >=2 sites, >=1 edit and a tick cadence")
	}
	res := ShootoutResult{}
	// The participants join over the link without its loss, which a lost
	// join is not retried through; the lossy links are laid afterwards.
	clean := o.Link
	clean.Loss, clean.Reorder = 0, 0
	w := simworld.New(o.Seed, clean)
	// Every frame offered to the wire counts, lost or not, at the length the
	// daemon's codec gives it on TCP (on the simulator a payload travels as
	// a value with a size estimate).
	codec := session.NewWireCodec()
	fabric.RegisterBase(codec)
	var tapErr error
	w.Wrap = func(_ string, base *fabric.SimEndpoint) fabric.Endpoint {
		return fabric.Wrap(base, fabric.Tap(func(_ string, payload any, _ int) {
			frame, err := codec.Encode(payload)
			if err != nil && tapErr == nil {
				tapErr = err
			}
			res.Msgs++
			res.Bytes += len(frame)
		}, nil))
	}
	sim := w.Sim
	ids := workload.Users("s", o.Sites)
	d, err := w.Daemon(shootoutConfig(o.Engine), ids...)
	if err != nil {
		return ShootoutResult{}, err
	}
	res.Msgs, res.Bytes = 0, 0 // the joins are set-up, not editing
	w.Star(daemon.HostID, o.Link, o.Link, ids...)
	lens := make(map[string]int, o.Sites)
	issued := make([]time.Duration, o.Edits)
	lat := make([]time.Duration, 0, o.Edits)
	editsDone := 0
	confirmed := 0 // edits integrated everywhere (prefix count)
	done := false
	var convergedAt time.Duration
	var lastEditAt time.Duration

	// progress records newly group-wide edits and full convergence.
	progress := func() {
		minLen := lens[ids[0]]
		for _, id := range ids[1:] {
			if lens[id] < minLen {
				minLen = lens[id]
			}
		}
		for confirmed < minLen && confirmed < o.Edits {
			lat = append(lat, sim.Now()-issued[confirmed])
			confirmed++
		}
		if done || editsDone < o.Edits || !d.Converged() {
			return
		}
		done = true
		convergedAt = sim.Now()
	}
	textLen := func(id string) int {
		text, _ := d.Parts[id].Text()
		return utf8.RuneCountInString(text)
	}
	d.Applied = func(id string, _ session.Item) {
		lens[id] = textLen(id)
		progress()
	}

	r := rand.New(rand.NewSource(o.Seed))
	for i := 0; i < o.Edits; i++ {
		i := i
		site := ids[i%o.Sites]
		sim.At(time.Duration(i)*editGap, func() {
			pos := 0
			if lens[site] > 0 {
				pos = r.Intn(lens[site] + 1)
			}
			ch := rune('a' + r.Intn(26))
			d.Edit(site, func(doc engine.Doc) ([]engine.Msg, error) { return doc.Insert(pos, ch) })
			issued[i] = sim.Now()
			lastEditAt = sim.Now()
			editsDone++
			lens[site] = textLen(site)
			progress()
		})
	}

	if o.PartitionFor > 0 {
		half := o.Sites / 2
		a, b := append([]string{daemon.HostID}, ids[:half]...), ids[half:]
		cut := time.Duration(o.Edits/4) * editGap
		sim.At(cut, func() { sim.Partition(a, b) })
		sim.At(cut+o.PartitionFor, func() { sim.Heal(a, b) })
	}

	// Recovery cadence, with a virtual-time deadline so a non-converging
	// run terminates and reports honestly.
	deadline := sim.Now() + time.Duration(o.Edits)*editGap + o.PartitionFor + 60*time.Second
	sim.Every(o.Tick, func() bool {
		if done || d.Err() != nil || sim.Now() > deadline {
			return false
		}
		d.Tick()
		return true
	})

	sim.Run()
	if err := d.Err(); err != nil {
		return res, err
	}
	if tapErr != nil {
		return res, tapErr
	}
	res.Converged = done
	res.Latency = percentiles(lat)
	if done {
		res.Tail = convergedAt - lastEditAt
	}
	return res, nil
}

// ShootoutPipeline returns a step function driving one engine's full edit
// pipeline through the shipped composition on a clean zero-latency link:
// step i performs one edit and runs the world until every participant has
// it, acks and released submissions included. The document oscillates
// around one rune (insert at 0 on even steps, delete at 0 on odd) so the
// cost stays on the protocol machinery, not text copying.
func ShootoutPipeline(kind string, sites int) (func(i int) error, error) {
	w := simworld.New(1, netsim.Link{})
	ids := workload.Users("s", sites)
	d, err := w.Daemon(shootoutConfig(kind), ids...)
	if err != nil {
		return nil, err
	}
	depth := 0 // text length at the editing site (identical across sites after each step)
	return func(i int) error {
		d.Edit(ids[i%sites], func(doc engine.Doc) ([]engine.Msg, error) {
			if depth == 0 {
				depth++
				return doc.Insert(0, 'x')
			}
			depth--
			return doc.Delete(0)
		})
		w.Sim.Run()
		return d.Err()
	}, nil
}

// ShootoutBench wraps ShootoutPipeline as a standard benchmark.
func ShootoutBench(kind string, sites int) func(b *testing.B) {
	return func(b *testing.B) {
		step, err := ShootoutPipeline(kind, sites)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(i); err != nil {
				b.Fatal(err)
			}
		}
	}
}
