package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/netsim"
	"repro/internal/ot"
	"repro/internal/session"
	"repro/internal/simworld"
)

// MulticastOptions configures a group-multicast benchmark rig.
type MulticastOptions struct {
	Members  int
	Ordering group.Ordering
	// Batch enables sender-side batching. Throughput rigs use MaxMsgs-only
	// batching (Window 0): size-triggered flushes need no timer and keep
	// the measurement deterministic; window behaviour shows up in the
	// latency profile instead.
	Batch group.BatchConfig
	Seed  int64
}

// multicastRig builds members over a simulated link, every one delivering
// to the same callback.
func multicastRig(o MulticastOptions, link netsim.Link, deliver func(group.Delivery)) (*netsim.Sim, []*group.Member) {
	w := simworld.New(o.Seed, link)
	ids := make([]string, o.Members)
	for i := range ids {
		ids[i] = fmt.Sprintf("m%02d", i)
	}
	byID, err := w.Members(ids, o.Ordering, o.Batch, func(string) func(group.Delivery) { return deliver })
	if err != nil {
		panic(err)
	}
	members := make([]*group.Member, o.Members)
	for i, id := range ids {
		members[i] = byID[id]
	}
	return w.Sim, members
}

// MulticastBench returns a benchmark function: each op is one multicast
// through the full ordering path (send, sequence assignment, delivery to
// every member, the sender included). The sim event queue drains in chunks
// inside the timed region — delivery work is the cost being measured.
func MulticastBench(o MulticastOptions) func(b *testing.B) {
	return func(b *testing.B) {
		delivered := 0
		sim, members := multicastRig(o, netsim.LocalLink, func(group.Delivery) { delivered++ })
		n := len(members)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := members[i%n].Multicast(i, 16); err != nil {
				b.Fatal(err)
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
		b.StopTimer()
		if want := b.N * n; delivered != want {
			b.Fatalf("delivered %d of %d", delivered, want)
		}
	}
}

// MulticastLatencies measures per-message latency in VIRTUAL time: sends
// are staggered on the simulator clock and each message's delay to its
// last delivery (the point the whole group has it) is sampled.
// Deterministic for a given seed — it profiles protocol latency
// (accumulation windows, sequencing round-trips), not host speed, so
// batched configurations honestly show their added window latency next to
// their throughput win.
func MulticastLatencies(o MulticastOptions, samples int) LatencyProfile {
	sent := make([]time.Duration, samples)
	seen := make([]int, samples)
	lat := make([]time.Duration, 0, samples)
	var sim *netsim.Sim
	n := o.Members
	record := func(d group.Delivery) {
		idx, ok := d.Body.(int)
		if !ok || idx < 0 || idx >= samples {
			return
		}
		seen[idx]++
		if seen[idx] == n { // everyone has it
			lat = append(lat, sim.Now()-sent[idx])
		}
	}
	var members []*group.Member
	sim, members = multicastRig(o, netsim.LANLink, record)
	const gap = 200 * time.Microsecond
	for i := 0; i < samples; i++ {
		i := i
		sim.At(time.Duration(i)*gap, func() {
			sent[i] = sim.Now()
			_ = members[i%n].Multicast(i, 16)
		})
	}
	// A trailing flush releases any partial batch when no window timer is
	// configured.
	sim.At(time.Duration(samples)*gap, func() {
		for _, m := range members {
			m.Flush()
		}
	})
	sim.Run()
	return percentiles(lat)
}

// OTBench returns a benchmark of the full operational-transformation round
// trip: one client generates an op, the server commits it, every client
// integrates the commit. The document oscillates between zero and one rune
// (insert on even ops, delete on odd) so the measurement stays on the
// protocol machinery rather than rune copying.
func OTBench(clients int) func(b *testing.B) {
	return func(b *testing.B) {
		srv := ot.NewServer("")
		cs := make([]*ot.Client, clients)
		for i := range cs {
			cs[i] = ot.NewClient(fmt.Sprintf("c%02d", i), srv)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cs[i%clients]
			var op ot.Op
			if i%2 == 0 {
				op = ot.Insertions(c.ID(), 0, "x")[0]
			} else {
				op = ot.Deletions(c.ID(), 0, 1)[0]
			}
			sub, send, err := c.Generate(op)
			if err != nil {
				b.Fatal(err)
			}
			for send {
				cm, err := srv.Submit(sub.Op, sub.Base, sub.Site, sub.Seq)
				if err != nil {
					b.Fatal(err)
				}
				send = false
				for _, cl := range cs {
					next, more, err := cl.Integrate(cm)
					if err != nil {
						b.Fatal(err)
					}
					if more {
						sub, send = next, true
					}
				}
			}
		}
	}
}

// SessionPostBench returns a benchmark of the session post path over the
// simulator: a synchronous host pushing each post to one other active
// participant.
func SessionPostBench(seed int64) func(b *testing.B) {
	return func(b *testing.B) {
		w := simworld.New(seed, netsim.LocalLink)
		sim := w.Sim
		_, clients := w.Session("host", session.Synchronous, "poster", "watcher")
		poster, watcher := clients["poster"], clients["watcher"]
		got := 0
		watcher.OnItem = func(session.Item) { got++ }
		if err := poster.Join(0); err != nil {
			b.Fatal(err)
		}
		if err := watcher.Join(0); err != nil {
			b.Fatal(err)
		}
		sim.Run()
		if !poster.Joined() || !watcher.Joined() {
			b.Fatal("join failed")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := poster.Post("bench", "x", 0); err != nil {
				b.Fatal(err)
			}
			if i%1024 == 1023 {
				sim.Run()
			}
		}
		sim.Run()
		b.StopTimer()
		if got != b.N {
			b.Fatalf("watcher saw %d of %d posts", got, b.N)
		}
	}
}

// CodecRoundTripBench returns a benchmark of one encode+decode through a
// fabric payload codec (the JSON envelope or the binary frame), isolating
// wire-format cost from transport cost.
func CodecRoundTripBench(codec fabric.PayloadCodec, payload any) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := codec.Encode(payload)
			if err != nil {
				b.Fatal(err)
			}
			out, err := codec.Decode(data)
			if err != nil || out == nil {
				b.Fatalf("decode: %v (out %v)", err, out)
			}
		}
	}
}
