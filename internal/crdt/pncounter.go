package crdt

import (
	"fmt"

	"repro/internal/vclock"
)

// Counter is a PN-counter: per-site monotone totals of increments (P) and
// decrements (N), with Value the difference of their sums. Per-site FIFO
// gating makes a site's running totals deterministic, so the state join is
// a pointwise maximum.
type Counter struct {
	site  string
	opSeq uint64
	vv    vclock.VC
	pos   map[string]uint64
	neg   map[string]uint64
	held  []Op
}

// NewCounter returns a zero replica owned by site.
func NewCounter(site string) *Counter {
	return &Counter{
		site: site,
		vv:   vclock.New(),
		pos:  make(map[string]uint64),
		neg:  make(map[string]uint64),
	}
}

// Site returns the replica's site identifier.
func (c *Counter) Site() string { return c.site }

// Held returns the number of remote ops waiting on FIFO order.
func (c *Counter) Held() int { return len(c.held) }

// VV returns a copy of the applied-operation vector.
func (c *Counter) VV() vclock.VC { return c.vv.Clone() }

// Value returns the counter value: total increments minus total decrements.
func (c *Counter) Value() int64 {
	var p, n uint64
	for _, v := range c.pos {
		p += v
	}
	for _, v := range c.neg {
		n += v
	}
	return int64(p) - int64(n)
}

// Add applies a local increment (delta may be negative) and returns the op
// to broadcast.
func (c *Counter) Add(delta int64) Op {
	c.opSeq++
	op := Op{Kind: OpCtrAdd, Site: c.site, Seq: c.opSeq, Delta: delta}
	c.applyOp(op)
	c.vv.Tick(c.site)
	return op
}

// Apply integrates a remote op; duplicates are dropped, FIFO gaps held.
func (c *Counter) Apply(op Op) error {
	if op.Kind != OpCtrAdd {
		return fmt.Errorf("crdt: counter cannot apply %v op", op.Kind)
	}
	c.held = integrate(c.vv, c.held, op, func(Op) bool { return true }, c.applyOp)
	return nil
}

func (c *Counter) applyOp(op Op) {
	if op.Delta >= 0 {
		c.pos[op.Site] += uint64(op.Delta)
	} else {
		// uint64 of the two's-complement negation is the correct magnitude
		// even for math.MinInt64.
		c.neg[op.Site] += uint64(-op.Delta)
	}
}

// CtrState is the full serializable state of a Counter.
type CtrState struct {
	Pos map[string]uint64
	Neg map[string]uint64
	VV  vclock.VC
}

// State snapshots the replica for anti-entropy.
func (c *Counter) State() *CtrState {
	st := &CtrState{
		Pos: make(map[string]uint64, len(c.pos)),
		Neg: make(map[string]uint64, len(c.neg)),
		VV:  c.vv.Clone(),
	}
	for site, v := range c.pos {
		st.Pos[site] = v
	}
	for site, v := range c.neg {
		st.Neg[site] = v
	}
	return st
}

// MergeState joins a peer snapshot: pointwise maxima of the monotone
// per-site totals, vector merge, held-op drain. Idempotent, commutative,
// associative.
func (c *Counter) MergeState(st *CtrState) {
	for site, v := range st.Pos {
		if v > c.pos[site] {
			c.pos[site] = v
		}
	}
	for site, v := range st.Neg {
		if v > c.neg[site] {
			c.neg[site] = v
		}
	}
	c.vv.Merge(st.VV)
	c.held = drainHeld(c.vv, c.held, func(Op) bool { return true }, c.applyOp)
}
