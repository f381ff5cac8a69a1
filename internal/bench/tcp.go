package bench

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/fabric"
	"repro/internal/group"
	"repro/internal/transport"
)

// GroupSequencerTCPBench prices the ordering layer on the real substrate,
// the in-module row for the end-to-end group_seq workload: four
// TotalSequencer members on loopback TCP endpoints, each behind its own
// group codec, and one iteration is one multicast (senders in turn) that
// every member, the sender included, has delivered before the next starts.
// The members' sockets are all dialed before the timer starts. It reports
// wire-B/op, the frame bytes the members hand their transports per
// multicast (the sequencer protocol sends nothing to self).
func GroupSequencerTCPBench() func(b *testing.B) {
	return func(b *testing.B) {
		const n = 4
		book := transport.NewAddressBook()
		eps := make([]*fabric.TransportEndpoint, n)
		defer func() {
			for _, ep := range eps {
				if ep != nil {
					_ = ep.Close() // teardown
				}
			}
		}()
		var delivered, wire atomic.Int64
		landed := make(chan struct{}, 1)
		members := make([]*group.Member, n)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("m%d", i)
		}
		for i, id := range ids {
			tep, err := transport.ListenTCP(id, "127.0.0.1:0", book)
			if err != nil {
				b.Fatal(err)
			}
			codec := fabric.NewCodec()
			group.RegisterWire(codec)
			eps[i] = fabric.FromTransport(byteCounter{tep, &wire}, codec)
			members[i], err = group.NewMember(group.Config{
				Endpoint: eps[i],
				Ordering: group.TotalSequencer,
				Deliver: func(group.Delivery) {
					if delivered.Add(1)%n == 0 { // one multicast outstanding: its last delivery
						landed <- struct{}{}
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		view := group.NewView(1, ids)
		for _, m := range members {
			m.InstallView(view)
		}
		op := func(i int) {
			if err := members[i%n].Multicast("an edit to order", 16); err != nil {
				b.Fatal(err)
			}
			<-landed
		}
		for i := range n { // dial every connection
			op(i)
		}
		b.ReportAllocs()
		wire.Store(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op(i)
		}
		b.StopTimer()
		b.ReportMetric(float64(wire.Load())/float64(b.N), WireBytesUnit)
		for _, ep := range eps {
			if d := ep.Dropped(); d != 0 {
				b.Fatalf("%d frames dropped", d)
			}
		}
	}
}

// WireBytesUnit is the custom benchmark metric of the frame bytes handed to
// transports per op; FromBenchmark copies it into Result.WireBytesPerOp.
const WireBytesUnit = "wire-B/op"

// byteCounter adds the length of every frame sent through it to n.
type byteCounter struct {
	transport.Endpoint
	n *atomic.Int64
}

func (c byteCounter) Send(to string, data []byte) error {
	c.n.Add(int64(len(data)))
	return c.Endpoint.Send(to, data)
}
