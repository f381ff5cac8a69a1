package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/session"
	"repro/internal/transport"
)

// DaemonTCPBench prices one edit end to end over loopback TCP, the
// in-module row beside the relay_1x4 (eng crdt) and ot_1x4 (eng ot)
// workloads: a daemon.New and four daemon.Dial participants in this
// process, one edit in flight at a time (see daemonRig). It reports
// wire-B/op, the frame bytes every site hands its transport, counted at the
// WrapTransport seam, and push-frames/op, the items frames the daemon sends.
func DaemonTCPBench(eng string) func(b *testing.B) {
	return func(b *testing.B) {
		r, err := startDaemonRig(eng)
		if err != nil {
			b.Fatal(err)
		}
		defer r.close()
		b.ReportAllocs()
		r.wire.Store(0)
		r.pushes.Store(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := r.edit(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(r.wire.Load())/float64(b.N), WireBytesUnit)
		b.ReportMetric(float64(r.pushes.Load())/float64(b.N), "push-frames/op")
	}
}

// daemonRig is a daemon and four participants editing one document. The
// participants edit in turn, an insert at position 0 and then its delete,
// so the document never holds more than one character and no per-op cost
// grows with the number of ops. An op is done when every replica has
// applied it, counted from Pump.Deliver: 3 applications per op under CRDT
// (the other replicas apply the op) and 4 under OT (every replica applies
// the commit).
type daemonRig struct {
	d     *daemon.Daemon
	peers []*daemon.Participant
	perOp int64
	ops   int

	applied      atomic.Int64
	landed       chan struct{} // one token per finished op, or per failure
	wire, pushes atomic.Int64
	failMu       sync.Mutex
	fail         error
}

// rigWarmOps is how many ops startDaemonRig runs before it returns: enough
// that every connection has carried frames both ways and that the session
// log and the OT commit log hold more than chunklog.Size entries, past the
// first chunk, which grows by doubling where later ones are allocated whole.
const rigWarmOps = 300

func startDaemonRig(eng string) (r *daemonRig, err error) {
	r = &daemonRig{perOp: 3, landed: make(chan struct{}, 1)}
	if eng == engine.OT {
		r.perOp = 4
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	count := func(ep transport.Endpoint) transport.Endpoint { return byteCounter{ep, &r.wire} }
	pushes := fabric.Tap(func(_ string, payload any, _ int) {
		if _, ok := payload.(*session.MsgItems); ok {
			r.pushes.Add(1)
		}
	}, nil)
	r.d, err = daemon.New(daemon.Config{Listen: "127.0.0.1:0", Mode: "sync", Shards: 1, Engine: eng,
		WrapTransport: count, Middleware: []fabric.Middleware{pushes}})
	if err != nil {
		return r, err
	}
	for i := range 4 {
		p, err := daemon.Dial(daemon.Config{User: fmt.Sprintf("p%d", i), Host: r.d.Addr(), Doc: "doc", Engine: eng, WrapTransport: count})
		if err != nil {
			return r, err
		}
		r.peers = append(r.peers, p)
		p.Client.OnItem = func(it session.Item) {
			applied, err := p.Deliver(it)
			if err != nil {
				r.failMu.Lock()
				r.fail = err
				r.failMu.Unlock()
			}
			if err != nil || applied && r.applied.Add(1)%r.perOp == 0 {
				r.landed <- struct{}{}
			}
		}
		if err := p.Join(5 * time.Second); err != nil {
			return r, err
		}
	}
	for range rigWarmOps {
		if err := r.edit(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// edit runs the next op and waits until every replica has applied it.
func (r *daemonRig) edit() error {
	n := r.ops
	r.ops++
	err := r.peers[n%len(r.peers)].Edit(func(d engine.Doc) ([]engine.Msg, error) {
		if n%2 == 1 {
			return d.Delete(0)
		}
		return d.Insert(0, rune('a'+n%26))
	})
	if err != nil {
		return err
	}
	<-r.landed
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.fail
}

func (r *daemonRig) close() {
	for _, p := range r.peers {
		_ = p.Close() // teardown
	}
	if r.d != nil {
		_ = r.d.Close() // teardown
	}
}
