package bench

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/simworld"
)

// OT-vs-CRDT shootout: both convergence engines driven through the same
// binding (engine.Doc), the same binary wire codec and the same workloads,
// so the report compares the algorithms rather than the harnesses. Two
// measurements per engine:
//
//   - ShootoutBench: real-time throughput of the full edit pipeline on a
//     clean in-memory link — generate, encode, decode, integrate at every
//     replica — comparable to the other msgs/sec rows in the report.
//   - ShootoutConverge: a deterministic virtual-time run over a lossy
//     (optionally partitioned) netsim network, reporting messages offered
//     to the wire, exact encoded bytes, per-edit convergence latency
//     percentiles and the tail from last edit to full convergence.

// ShootoutOptions configures a convergence run.
type ShootoutOptions struct {
	Engine string      // engine.OT or engine.CRDT
	Sites  int         // replica count; site 0 hosts the OT server
	Edits  int         // scripted inserts (insert-only keeps progress monotone)
	Link   netsim.Link // applied between every pair of sites
	// Tick is the recovery cadence: OT clients resend+pull, CRDT replicas
	// gossip state. Chosen well above the edit gap so steady-state traffic
	// is op-shaped, with ticks as the repair channel.
	Tick time.Duration
	// PartitionFor, when non-zero, splits the sites into two halves a
	// quarter of the way into the edit phase and heals after this long.
	PartitionFor time.Duration
	Seed         int64
}

// ShootoutResult is one convergence run's outcome.
type ShootoutResult struct {
	Converged bool
	Msgs      int // messages offered to the wire (losses included)
	Bytes     int // encoded payload bytes offered to the wire
	// Latency is the per-edit convergence profile in virtual time: sample m
	// is the delay from edit m's issue until every replica has integrated at
	// least m inserts.
	Latency LatencyProfile
	// Tail is the delay from the last edit's issue to full convergence
	// (identical text and nothing pending at any replica).
	Tail time.Duration
}

const editGap = 2 * time.Millisecond

// ShootoutLossyOptions is the report's canonical lossy run: four replicas
// on a 2ms link where a fifth of the traffic vanishes and a sixth arrives
// late enough to be overtaken.
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
// lossless variant of the lossy link, split into two halves (the OT server
// in the first) mid-run and healed 120ms later.
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

// shootoutSites names the sites; s00 is the first and hosts the OT server.
func shootoutSites(sites int) []string {
	ids := make([]string, sites)
	for i := range ids {
		ids[i] = fmt.Sprintf("s%02d", i)
	}
	return ids
}

// shootoutDocs builds one engine.Doc per site for the in-memory pipeline.
func shootoutDocs(kind string, sites int) ([]string, map[string]engine.Doc, error) {
	ids := shootoutSites(sites)
	docs := make(map[string]engine.Doc, sites)
	for _, id := range ids {
		d, err := engine.New(kind, "doc", id, ids[0])
		if err != nil {
			return nil, nil, err
		}
		docs[id] = d
	}
	return ids, docs, nil
}

// ShootoutConverge runs the scripted insert workload for one engine over a
// netsim network and measures convergence. Deterministic for a given seed.
func ShootoutConverge(o ShootoutOptions) (ShootoutResult, error) {
	if o.Sites < 2 || o.Edits < 1 || o.Tick <= 0 {
		return ShootoutResult{}, fmt.Errorf("shootout: need >=2 sites, >=1 edit and a tick cadence")
	}
	res := ShootoutResult{}
	w := simworld.New(o.Seed, o.Link)
	// Every frame offered to the wire counts, lost or not.
	w.Wrap = func(_ string, base *fabric.SimEndpoint) fabric.Endpoint {
		return fabric.Wrap(base, fabric.Tap(func(_ string, _ any, size int) {
			res.Msgs++
			res.Bytes += size
		}, nil))
	}
	sim := w.Sim
	ids := shootoutSites(o.Sites)
	reps, err := w.Replicas(o.Engine, ids...)
	if err != nil {
		return ShootoutResult{}, err
	}
	docs := reps.Docs
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
		if done || editsDone < o.Edits || !reps.Converged() {
			return
		}
		done = true
		convergedAt = sim.Now()
	}
	reps.Applied = func(id string) {
		lens[id] = utf8.RuneCountInString(docs[id].Text())
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
			reps.Insert(site, pos, rune('a'+r.Intn(26)))
			issued[i] = sim.Now()
			lastEditAt = sim.Now()
			editsDone++
			lens[site] = utf8.RuneCountInString(docs[site].Text())
			progress()
		})
	}

	if o.PartitionFor > 0 {
		half := o.Sites / 2
		a, b := ids[:half], ids[half:]
		cut := time.Duration(o.Edits/4) * editGap
		sim.At(cut, func() { sim.Partition(a, b) })
		sim.At(cut+o.PartitionFor, func() { sim.Heal(a, b) })
	}

	// Recovery cadence, with a virtual-time deadline so a non-converging
	// run terminates and reports honestly.
	deadline := time.Duration(o.Edits)*editGap + o.PartitionFor + 60*time.Second
	sim.Every(o.Tick, func() bool {
		if done || reps.Err() != nil || sim.Now() > deadline {
			return false
		}
		reps.Tick()
		return true
	})

	sim.Run()
	if err := reps.Err(); err != nil {
		return res, err
	}
	res.Converged = done
	res.Latency = percentiles(lat)
	if done {
		res.Tail = convergedAt - lastEditAt
	}
	return res, nil
}

// ShootoutPipeline returns a step function driving one engine's full edit
// pipeline on a clean in-memory link: step i performs one edit — generated,
// binary-encoded, decoded and integrated at every replica, acks and
// released submissions included. The document oscillates around one rune
// (insert at 0 on even steps, delete at 0 on odd) so the cost stays on the
// protocol machinery, not text copying.
func ShootoutPipeline(kind string, sites int) (func(i int) error, error) {
	ids, docs, err := shootoutDocs(kind, sites)
	if err != nil {
		return nil, err
	}
	codec := fabric.NewBinaryCodec(engine.NewWireCodec())
	type env struct {
		from, to string
		data     []byte
	}
	var queue []env
	push := func(from string, msgs []engine.Msg) error {
		for _, m := range msgs {
			data, err := codec.Encode(m.Body)
			if err != nil {
				return err
			}
			if m.To != "" {
				queue = append(queue, env{from, m.To, data})
				continue
			}
			for _, id := range ids {
				if id != from {
					queue = append(queue, env{from, id, data})
				}
			}
		}
		return nil
	}
	depth := 0 // text length at the editing site (identical across sites after each step)
	return func(i int) error {
		d := docs[ids[i%sites]]
		var msgs []engine.Msg
		var err error
		if depth == 0 {
			msgs, err = d.Insert(0, 'x')
			depth++
		} else {
			msgs, err = d.Delete(0)
			depth--
		}
		if err != nil {
			return err
		}
		if err := push(ids[i%sites], msgs); err != nil {
			return err
		}
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			body, err := codec.Decode(e.data)
			if err != nil {
				return err
			}
			out, err := docs[e.to].Apply(e.from, body)
			if err != nil {
				return err
			}
			if err := push(e.to, out); err != nil {
				return err
			}
		}
		return nil
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
