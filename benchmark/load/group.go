package load

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/group"
)

// groupMember is one group.Member on its own loopback TCP endpoint.
type groupMember struct {
	name string
	ep   fabric.Endpoint
	m    *group.Member
	t0   []atomic.Int64 // per own multicast seq, as participant.t0
	// ack wakes this member's closed-loop sender when its one outstanding
	// multicast has been delivered at every member; nil on an open loop.
	ack    chan struct{}
	ackGot atomic.Int32

	mu        sync.Mutex
	delivered []string // bodies in delivery order: the total order as seen here
	latNs     []int64
}

// runGroupRep runs one repetition of the group workload: members in the
// loadgen, TotalSequencer ordering, zero BatchConfig, the JSON codec (the only
// wire group.RegisterWire has). There is no child process.
func runGroupRep(wl Workload, nOps int, seed int64, tr *tracer) (*Rep, error) {
	runtime.GC()
	cpu0, mallocs0 := selfUsage(), mallocs()
	start := time.Now()
	epoch := start
	if tr != nil {
		epoch = tr.epoch
	}
	now := func() int64 { return int64(time.Since(epoch)) }

	var counts wireCounts
	var ck checks
	fail := ck.fail

	// Every member delivers every message, its own included (a sender waits
	// for the sequencer like everyone else). Set-up ends when one multicast
	// from each member, which dials all n×n connections, has landed everywhere.
	n := wl.PerDoc
	setupPairs := int64(n * n)
	wantPairs := setupPairs + int64(nOps*n)
	var pairs, lastApply atomic.Int64
	ready, drained := make(chan struct{}), make(chan struct{})

	book := newAddressBook()
	members := make([]*groupMember, n)
	byName := make(map[string]*groupMember, n)
	ids := make([]string, n)
	defer func() {
		for _, gm := range members {
			if gm != nil {
				_ = gm.ep.Close() // teardown
			}
		}
	}()
	for i := range members {
		name := fmt.Sprintf("m%d", i)
		tep, err := listenTCP(name, book, &counts, "", tr)
		if err != nil {
			return nil, err
		}
		reg := fabric.NewCodec()
		group.RegisterWire(reg)
		var codec fabric.PayloadCodec = reg
		if tr != nil {
			codec = &tracedCodec{PayloadCodec: codec, node: name, tr: tr}
		}
		var ep fabric.Endpoint = fabric.FromTransport(tep, codec)
		if tr != nil {
			ep = fabric.Wrap(ep, tr.middleware(name))
		}
		gm := &groupMember{name: name, ep: ep, t0: make([]atomic.Int64, nOps/n+3)}
		members[i], byName[name], ids[i] = gm, gm, name
	}
	for _, gm := range members {
		gm := gm
		m, err := group.NewMember(group.Config{
			Endpoint: gm.ep,
			Ordering: group.TotalSequencer,
			Deliver: func(d group.Delivery) {
				body, _ := d.Body.(string)
				site, seq := parseOpBody(body)
				sp := tr.begin(gm.name, spanDeliver, d.From, Key{Site: site, Seq: seq})
				at := now()
				src := byName[site]
				gm.mu.Lock()
				gm.delivered = append(gm.delivered, body)
				if src != nil && seq < uint64(len(src.t0)) {
					if t0 := src.t0[seq].Load(); t0 > 0 {
						gm.latNs = append(gm.latNs, at-(t0-1))
					}
				}
				gm.mu.Unlock()
				sp.end()
				if src != nil && src.ack != nil && src.ackGot.Add(1) == int32(n) {
					src.ackGot.Store(0)
					src.ack <- struct{}{} // capacity 1, one multicast outstanding: never blocks
				}
				storeMax(&lastApply, at)
				switch pairs.Add(1) {
				case setupPairs:
					close(ready)
				case wantPairs:
					close(drained)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		gm.m = m
	}
	view := group.NewView(1, ids)
	for _, gm := range members {
		gm.m.InstallView(view)
	}
	seqs := make([]uint64, n)
	for i, gm := range members {
		seqs[i]++
		gm.t0[seqs[i]].Store(-1)
		if err := gm.m.Multicast(opBody(gm.name, seqs[i], Draw{}), 16); err != nil {
			return nil, fmt.Errorf("%s: set-up multicast: %w", gm.name, err)
		}
	}
	select {
	case <-ready:
	case <-time.After(applyDeadline):
		return nil, fmt.Errorf("%s: set-up multicasts not delivered within %v (%d of %d)", wl.Name, applyDeadline, pairs.Load(), setupPairs)
	}
	r := &Rep{setup: time.Since(start), ops: nOps, pairs: wantPairs - setupPairs, counts: &counts, hub: view.Sequencer(), ordered: legOrdered}
	warm := int(float64(nOps) * warmShare)
	r.timedOps = nOps - warm
	r.driveStart = now()
	script := Script(seed, nOps)
	send := func(i int, t0 int64) error {
		gm := members[i%n]
		seqs[i%n]++
		seq := seqs[i%n]
		if t0 >= 0 {
			t0++ // 0 means unset, as in participant.t0
		}
		gm.t0[seq].Store(t0)
		sp := tr.begin(gm.name, spanMulticast, "", Key{Site: gm.name, Seq: seq})
		err := gm.m.Multicast(opBody(gm.name, seq, script[i]), 16)
		sp.end()
		return err
	}
	var firstTimed int64
	if wl.Rate == 0 {
		// Closed loop: member e sends ops e, e+n, e+2n, …, the next one when the
		// previous has been delivered everywhere; n multicasts are outstanding.
		var wg sync.WaitGroup
		firsts := make([]int64, n)
		for e, gm := range members {
			gm.ack = make(chan struct{}, 1)
			wg.Add(1)
			go func(e int, gm *groupMember) {
				defer wg.Done()
				deadline := time.NewTimer(applyDeadline)
				defer deadline.Stop()
				for i := e; i < nOps; i += n {
					t0 := int64(-1)
					if i >= warm {
						t0 = now()
						if firsts[e] == 0 {
							firsts[e] = t0
						}
					}
					if err := send(i, t0); err != nil {
						fail("%s multicast: %v", gm.name, err)
						return
					}
					if !awaitAck(gm.ack, deadline) {
						fail("%s: multicast %d not delivered everywhere within %v", gm.name, i/n+1, applyDeadline)
						return
					}
				}
			}(e, gm)
		}
		wg.Wait()
		firstTimed = firsts[0]
		for _, f := range firsts {
			firstTimed = min(firstTimed, f)
		}
	} else {
		// Open loop, one pacing goroutine, senders round-robin.
		var lateNs []int64
		firstTimed, lateNs = pace(nOps, wl.Rate, warm, now, nil, func(i int, t0 int64) {
			if err := send(i, t0); err != nil {
				fail("%s multicast: %v", members[i%n].name, err)
				r.failed++
			}
		})
		r.lateMs = sortedMs(lateNs)
	}
	select {
	case <-drained:
	case <-time.After(applyDeadline):
	}
	r.wall = time.Duration(lastApply.Load() - firstTimed)
	r.failed += wantPairs - pairs.Load()

	// Every member delivered the identical sequence, all of it.
	if got := pairs.Load(); got != wantPairs {
		fail("%d of %d deliveries made", got, wantPairs)
	}
	members[0].mu.Lock()
	want := strings.Join(members[0].delivered, ",")
	members[0].mu.Unlock()
	var latNs []int64
	for _, gm := range members {
		gm.mu.Lock()
		if got := strings.Join(gm.delivered, ","); got != want {
			fail("%s delivered a different order than %s (%d against %d messages)", gm.name, members[0].name, len(gm.delivered), len(members[0].delivered))
		}
		latNs = append(latNs, gm.latNs...)
		gm.mu.Unlock()
		r.retrans += gm.m.RetransmissionCount()
		r.dropped += fabric.DroppedOf(gm.ep)
	}
	r.latMs = sortedMs(latNs)
	r.failed += overdue(r.latMs)
	if r.dropped != 0 {
		fail("fabric dropped %d frames", r.dropped)
	}
	if c := counts.sendErrors.Load(); c != 0 {
		fail("%d transport sends failed", c)
	}
	r.ranLate = Percentile(r.lateMs, 99) > lateLimitMs
	for _, gm := range members {
		_ = gm.ep.Close() // teardown
	}
	r.self, r.mallocs, r.selfRSSKB = selfUsage().minus(cpu0), mallocs()-mallocs0, peakRSSKB("self")
	r.failures = ck.failures
	return r, nil
}

// opBody is the multicast body: "<member>:<seq>:<text>" — the op's (site,
// seq) and 8 to 23 characters the seed's draw decides, standing in for an edit.
func opBody(site string, seq uint64, d Draw) string {
	text := strings.Repeat(string(max(d.Ch, 'a')), 8+int(d.Pos*16))
	return site + ":" + strconv.FormatUint(seq, 10) + ":" + text
}

func parseOpBody(body string) (site string, seq uint64) {
	site, rest, ok := strings.Cut(body, ":")
	if !ok {
		return "", 0
	}
	num, _, _ := strings.Cut(rest, ":")
	seq, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return "", 0
	}
	return site, seq
}
