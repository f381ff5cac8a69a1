package stream

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/qos"
)

// BindingStats aggregates binding lifecycle activity.
type BindingStats struct {
	Renegotiations int
	Degradations   int // monitor windows with at least one violation
	Windows        int
}

// Binding is a QoS-managed stream binding from one source node to one or
// more sink nodes (a group stream binding when there are several, the
// "video source displayed in a number of distinct video windows
// simultaneously" of §4.2.2.iv).
//
// Establish performs the initial negotiation against the worst link on the
// path set; at run time each sink's monitor is rolled every window and any
// violation triggers adaptation: the binding steps the source down one tier
// and re-arms the monitors with the new contract (dynamic re-negotiation).
type Binding struct {
	sim     *netsim.Sim
	src     *Source
	sinks   []*Sink
	tiers   []Tier
	window  time.Duration
	running bool
	stats   BindingStats

	// OnViolation observes QoS degradation alerts (the "application can be
	// informed if degradations occur" hook).
	OnViolation func(sink string, vs []qos.Violation)
	// OnAdapt observes tier changes.
	OnAdapt func(from, to int)
}

// linkCapability derives a provider capability vector from the simulated
// link between two nodes.
func linkCapability(sim *netsim.Sim, from, to string) qos.Params {
	l := sim.LinkBetween(from, to)
	cap := qos.Params{
		Throughput: l.Bandwidth,
		Latency:    l.Latency + l.Jitter,
		Jitter:     l.Jitter,
		Loss:       l.Loss,
	}
	if l.Bandwidth == 0 {
		cap.Throughput = 1 << 40 // unconstrained link
	}
	if cap.Latency == 0 {
		cap.Latency = time.Nanosecond
	}
	if cap.Jitter == 0 {
		cap.Jitter = time.Nanosecond
	}
	return cap
}

// Establish negotiates a tier for the path from srcNode to each sink node
// and builds the wired-up source and sinks. Tiers must be ordered best
// first; requirement is the consumer's floor. bufDepth is the sinks' jitter
// buffer depth and window the monitoring period. Optional middlewares are
// applied to every endpoint the binding creates (source and sinks).
func Establish(sim *netsim.Sim, srcID string, sinkIDs []string, media string,
	tiers []Tier, requirement qos.Params, bufDepth, window time.Duration,
	mw ...fabric.Middleware) (*Binding, error) {
	if len(tiers) == 0 {
		return nil, ErrNoTiers
	}
	// The binding must satisfy the requirement over its *worst* path.
	agreedIdx := -1
	for i, t := range tiers {
		ok := true
		for _, dst := range sinkIDs {
			capv := linkCapability(sim, srcID, dst)
			if _, err := qos.Negotiate([]qos.Params{t.Contract}, capv, requirement); err != nil {
				ok = false
				break
			}
		}
		if ok {
			agreedIdx = i
			break
		}
	}
	if agreedIdx < 0 {
		return nil, fmt.Errorf("establish %s: %w", srcID, qos.ErrNoAgreement)
	}

	srcNode := sim.Node(srcID)
	if srcNode == nil {
		return nil, fmt.Errorf("stream: %w %q", netsim.ErrUnknownNode, srcID)
	}
	src, err := NewSource(sim, fabric.Wrap(fabric.FromSim(srcNode), mw...), srcID+"/"+media, media, sinkIDs, tiers)
	if err != nil {
		return nil, err
	}
	if err := src.SetTier(agreedIdx); err != nil {
		return nil, err
	}

	b := &Binding{sim: sim, src: src, tiers: tiers, window: window}
	for _, dst := range sinkIDs {
		node := sim.Node(dst)
		if node == nil {
			return nil, fmt.Errorf("stream: %w %q", netsim.ErrUnknownNode, dst)
		}
		sink := NewSink(sim, dst, tiers[agreedIdx].Interval, bufDepth)
		sink.SetMonitor(qos.NewMonitor(tiers[agreedIdx].Contract, window))
		fabric.Wrap(fabric.FromSim(node), mw...).SetHandler(sink.Handle)
		b.sinks = append(b.sinks, sink)
	}
	return b, nil
}

// Sinks returns the binding's sinks.
func (b *Binding) Sinks() []*Sink { return b.sinks }

// Stats returns accumulated statistics.
func (b *Binding) Stats() BindingStats { return b.stats }

// Tier returns the current tier index.
func (b *Binding) Tier() int { return b.src.Tier() }

// Start begins streaming and QoS monitoring.
func (b *Binding) Start() {
	if b.running {
		return
	}
	b.running = true
	b.src.Start()
	b.sim.Every(b.window, func() bool {
		if !b.running {
			return false
		}
		b.roll()
		return true
	})
}

// Stop halts streaming and monitoring.
func (b *Binding) Stop() {
	b.running = false
	b.src.Stop()
	for _, s := range b.sinks {
		s.Stop()
	}
}

func (b *Binding) roll() {
	b.stats.Windows++
	t := b.src.CurrentTier()
	expected := int(b.window / t.Interval)
	degraded := false
	for _, s := range b.sinks {
		m := s.Monitor()
		if m == nil {
			continue
		}
		m.Expect(expected)
		_, vs := m.Roll(b.sim.Now())
		if len(vs) > 0 {
			degraded = true
			if b.OnViolation != nil {
				b.OnViolation(s.id, vs)
			}
		}
	}
	if degraded {
		b.stats.Degradations++
		b.adaptDown()
	}
}

// adaptDown renegotiates to the next lower tier, if any.
func (b *Binding) adaptDown() {
	cur := b.src.Tier()
	if cur+1 >= len(b.tiers) {
		return // already at the floor; keep limping and keep reporting
	}
	next := cur + 1
	if err := b.src.SetTier(next); err != nil {
		return
	}
	nt := b.tiers[next]
	for _, s := range b.sinks {
		s.SetInterval(nt.Interval)
		if m := s.Monitor(); m != nil {
			m.SetContract(nt.Contract)
		}
	}
	b.stats.Renegotiations++
	if b.OnAdapt != nil {
		b.OnAdapt(cur, next)
	}
}
