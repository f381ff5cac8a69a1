package group

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
)

// lockProbe is a member's endpoint with a check in Send: the member's mutex
// must be free. A send made under Member.mu is what lets one slow peer, or a
// self-addressed frame that runs Receive on the sending goroutine, stall
// every other caller of the member. On the simulator every member runs on
// the one goroutine, so a mutex that is locked at a Send is held by the
// sender.
type lockProbe struct {
	fabric.Endpoint
	mu   *sync.Mutex // the member's, set once it exists
	held *int        // sends made with mu held
}

func (p *lockProbe) Send(to string, payload any, size int) error {
	if p.mu.TryLock() {
		p.mu.Unlock()
	} else {
		*p.held++
	}
	return p.Endpoint.Send(to, payload, size)
}

// TestNoSendUnderMemberLock drives every exported entry point of Member,
// under each ordering, through three members on the simulator, with batching
// so that Multicast flushes both by itself and through Flush and the window
// timer. Every send, an entry point's own and those of the receives it
// causes, must run with Member.mu released. Under FIFO a lost data packet and
// a lost NACK make SyncPoint and RequestRepair send repairs too.
func TestNoSendUnderMemberLock(t *testing.T) {
	for _, ord := range []Ordering{Unordered, FIFO, Causal, TotalSequencer, TotalToken} {
		t.Run(ord.String(), func(t *testing.T) {
			sim := netsim.New(1, netsim.LANLink)
			timer := TimerFunc(func(d time.Duration, fn func()) { sim.At(d, fn) })
			ids := []string{"m00", "m01", "m02"}
			m := make(map[string]*Member)
			held := 0
			for _, id := range ids {
				probe := &lockProbe{Endpoint: fabric.FromSim(sim.MustAddNode(id)), held: &held}
				var err error
				m[id], err = NewMember(Config{
					Endpoint: probe, Timer: timer, Ordering: ord,
					Deliver: func(Delivery) {},
					OnView:  func(View) {},
					Batch:   BatchConfig{Window: time.Millisecond, MaxMsgs: 2},
				})
				if err != nil {
					t.Fatal(err)
				}
				probe.mu = &m[id].mu
				m[id].Handle("echo", func(_ string, body any) (any, error) { return body, nil })
			}
			for _, id := range ids {
				m[id].InstallView(NewView(1, ids))
			}
			lost := netsim.Link{Latency: netsim.LANLink.Latency, Loss: 1}
			each := func(f func(*Member)) func() {
				return func() {
					for _, id := range ids {
						f(m[id])
					}
				}
			}
			steps := []struct {
				name string
				run  func()
			}{
				{"Multicast", each(func(x *Member) {
					for i := 0; i < 3; i++ {
						_ = x.Multicast(fmt.Sprint(x.id, i), 8)
					}
				})},
				{"Flush", each((*Member).Flush)},
				{"SyncPoint", each(func(x *Member) { _ = x.SyncPoint() })},
				{"a lost multicast and NACK", func() {
					sim.SetLink("m00", "m01", lost)
					_ = m["m00"].Multicast("lost", 8)
					sim.Run()
					sim.SetLink("m00", "m01", netsim.LANLink)
					sim.SetLink("m01", "m00", lost)
					_ = m["m00"].Multicast("gap", 8)
					m["m00"].Flush()
					sim.Run()
					sim.SetLink("m01", "m00", netsim.LANLink)
				}},
				{"RequestRepair", each((*Member).RequestRepair)},
				{"Call", func() {
					_ = m["m01"].Call("echo", "ping", CallOpts{Deadline: time.Second}, func([]Reply, error) {})
				}},
				{"ProposeView", func() { _ = m["m00"].ProposeView(NewView(2, ids)) }},
				{"InstallView", each(func(x *Member) { x.InstallView(NewView(3, ids)) })},
				{"Multicast after the view change", each(func(x *Member) { _ = x.Multicast("again", 8) })},
			}
			for _, s := range steps {
				s.run()
				sim.Run()
				if held > 0 {
					t.Errorf("%s: %d sends under Member.mu", s.name, held)
					held = 0
				}
			}
		})
	}
}

// TestAccessorsDuringTraffic reads a member's accessors, each on a
// goroutine of its own, while a lossy FIFO session runs on the test's: 200
// multicasts over a link that drops a fifth of them, and a sync point and a
// repair pass every 10 ms of virtual time, each followed by a short real
// pause so that the reads overlap the session. Under -race an accessor that
// reads member state without Member.mu is a reported data race.
func TestAccessorsDuringTraffic(t *testing.T) {
	r := lossyRig(t, 0.2, 3)
	const n = 200
	for i := 0; i < n; i++ {
		r.sim.At(time.Duration(i)*5*time.Millisecond, func() { _ = r.members["m00"].Multicast(i, 8) })
	}
	var reads []func()
	for _, id := range r.ids {
		x := r.members[id]
		reads = append(reads, func() { _ = x.RetransmissionCount() }, func() { _ = x.View() }, func() { _ = x.Delivered() })
	}
	stop := poll(reads...)
	for i := 1; i <= n; i++ {
		r.sim.RunUntil(time.Duration(i) * 10 * time.Millisecond)
		_ = r.members["m00"].SyncPoint()
		r.members["m01"].RequestRepair()
		time.Sleep(100 * time.Microsecond)
	}
	r.sim.Run()
	stop()
	if got := r.members["m01"].Delivered(); got != n {
		t.Errorf("m01 delivered %d of %d", got, n)
	}
	if r.members["m00"].RetransmissionCount() == 0 {
		t.Error("no repairs on a link that drops a fifth of the packets")
	}
}

// poll calls each read in a loop, on a goroutine of its own, until stop is
// called. A goroutine takes no lock but the ones its read takes, so under
// -race a read that skips its lock is unordered with every write made after
// the poll began, and is reported.
func poll(reads ...func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				read()
				runtime.Gosched()
			}
		}()
	}
	return func() {
		close(done)
		wg.Wait()
	}
}
