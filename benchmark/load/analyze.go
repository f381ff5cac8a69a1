package load

import "strings"

// layerTimes is what one traced rep says about the layers: mean self time per
// call in µs, by span name and by whether the node is the hub (the session
// host or the group sequencer) or a client.
type layerTimes struct {
	all, hub, client map[string]float64
	joinServeUs      float64 // hub `receive` self time for joins made after set-up
	hopWaitUs        float64 // mean transport.send return → peer transport.recv entry
	unexplained      float64 // median share of an op's latency no layer span or hop accounts for
}

// endpointKey identifies one direction of one connection carrying one frame
// kind: TCP keeps frames of a connection in order, so the i-th send of a key
// pairs with the i-th receive.
type endpointKey struct {
	from, to string
	key      Key
}

// analyze computes per-layer self times, hop waits and the blocking-path
// reconciliation from a finished trace. hub is the node every op crosses;
// ordered is the leg on which the hub forwards an op to its peers; joinsFrom
// excludes the set-up joins every workload makes.
func analyze(spans []Span, hub string, ordered uint8, joinsFrom int64) layerTimes {
	self := selfTimes(spans)
	type acc struct {
		sum float64
		n   int
	}
	sums := map[string]*[3]acc{} // name → all, hub, client
	var joins acc
	sends := map[endpointKey][]int{}
	recvs := map[endpointKey][]int{}
	byNodeOp := map[nodeOp][]int{}
	for i, s := range spans {
		if s.Key.Leg == legJoin {
			if s.Name == spanReceive && s.Node == hub && s.Start >= joinsFrom {
				joins.sum += float64(self[i]) / 1e3
				joins.n++
			}
			continue // joins are not ops; they would skew the per-op means
		}
		a := sums[s.Name]
		if a == nil {
			a = new([3]acc)
			sums[s.Name] = a
		}
		where := 2
		if s.Node == hub {
			where = 1
		}
		for _, k := range []int{0, where} {
			a[k].sum += float64(self[i]) / 1e3
			a[k].n++
		}
		switch s.Name {
		case spanTransportSend:
			k := endpointKey{s.Node, s.Peer, s.Key}
			sends[k] = append(sends[k], i)
		case spanTransportRecv:
			k := endpointKey{s.Peer, s.Node, s.Key}
			recvs[k] = append(recvs[k], i)
		}
		no := nodeOp{s.Node, s.Key.op()}
		byNodeOp[no] = append(byNodeOp[no], i)
	}
	lt := layerTimes{all: map[string]float64{}, hub: map[string]float64{}, client: map[string]float64{}}
	for name, a := range sums {
		for k, m := range []map[string]float64{lt.all, lt.hub, lt.client} {
			if a[k].n > 0 {
				m[name] = a[k].sum / float64(a[k].n)
			}
		}
	}
	if joins.n > 0 {
		lt.joinServeUs = joins.sum / float64(joins.n)
	}

	var hops acc
	for k, ss := range sends {
		rs := recvs[k]
		for i := 0; i < len(ss) && i < len(rs); i++ {
			hops.sum += float64(spans[rs[i]].Start-spans[ss[i]].End) / 1e3
			hops.n++
		}
	}
	if hops.n > 0 {
		lt.hopWaitUs = hops.sum / float64(hops.n)
	}

	p := pathFinder{spans: spans, hub: hub, ordered: ordered, sends: sends, recvs: recvs, byNodeOp: byNodeOp}
	var shares []float64
	for i, s := range spans {
		if s.Name != spanApply && s.Name != spanDeliver {
			continue
		}
		if share, ok := p.reconcile(i); ok {
			shares = append(shares, share)
		}
	}
	lt.unexplained = Median(shares)
	return lt
}

type nodeOp struct {
	node string
	op   Key
}

type pathFinder struct {
	spans        []Span
	hub          string
	ordered      uint8
	sends, recvs map[endpointKey][]int
	byNodeOp     map[nodeOp][]int
}

// first returns the first span filed under k, -1 if none.
func first(m map[endpointKey][]int, k endpointKey) int {
	if v := m[k]; len(v) > 0 {
		return v[0]
	}
	return -1
}

// reconcile walks the blocking path of one (op, peer) pair backwards from the
// apply (or group deliver) span at index applied:
//
//	author: issue start → send to hub returns
//	hop
//	hub:    raw handler entry → send to the peer returns
//	hop
//	peer:   raw handler entry → apply returns
//
// and returns the share of the measured latency that neither a layer span at
// those nodes nor a hop accounts for: lock waits, scheduling between
// goroutines, the harness's own bookkeeping.
func (p *pathFinder) reconcile(applied int) (share float64, ok bool) {
	a := p.spans[applied]
	op := a.Key.op()
	author, peer := op.Site, a.Node
	if author == peer && a.Name == spanApply {
		return 0, false // an OT author integrating its own acknowledgement
	}
	issue := -1
	for _, i := range p.byNodeOp[nodeOp{author, op}] {
		if n := p.spans[i].Name; n == spanIssue || n == spanMulticast {
			issue = i
			break
		}
	}
	up := Key{Site: op.Site, Seq: op.Seq, Leg: legOp}
	down := Key{Site: op.Site, Seq: op.Seq, Leg: p.ordered}
	s1 := first(p.sends, endpointKey{author, p.hub, up})
	r1 := first(p.recvs, endpointKey{author, p.hub, up})
	s2 := first(p.sends, endpointKey{p.hub, peer, down})
	r2 := first(p.recvs, endpointKey{p.hub, peer, down})
	if issue < 0 || s1 < 0 || r1 < 0 || s2 < 0 || r2 < 0 {
		return 0, false
	}
	c0 := p.spans[issue].Start
	latNs := a.End - c0
	if latNs <= 0 {
		return 0, false
	}
	explained := p.cover(author, op, c0, p.spans[s1].End) +
		(p.spans[r1].Start - p.spans[s1].End) +
		p.cover(p.hub, op, p.spans[r1].Start, p.spans[s2].End) +
		(p.spans[r2].Start - p.spans[s2].End) +
		p.cover(peer, op, p.spans[r2].Start, a.End)
	return float64(latNs-explained) / float64(latNs), true
}

// cover is how much of [lo, hi] the layer spans of op at node cover. The
// harness's own spans (loadgen.*) explain nothing about the program.
func (p *pathFinder) cover(node string, op Key, lo, hi int64) int64 {
	var ivs [][2]int64
	for _, i := range p.byNodeOp[nodeOp{node, op}] {
		if s := p.spans[i]; !strings.HasPrefix(s.Name, "loadgen.") {
			ivs = append(ivs, [2]int64{s.Start, s.End})
		}
	}
	return covered(ivs, lo, hi)
}
