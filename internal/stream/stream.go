// Package stream implements continuous-media transport over the simulated
// network: stream sources, sinks with jitter-buffered playout, QoS-managed
// stream bindings with run-time adaptation (re-negotiation to a lower
// tier), group (multicast) delivery, and the paper's two styles of
// real-time synchronisation (§4.2.2.iii):
//
//   - event-driven synchronisation: a sink's OnPlay callback sees every
//     playout slot, so an action can fire when a given stream position
//     plays (captions, slide changes);
//   - continuous synchronisation: slave a stream's playout clock to a
//     master's so they consume data in fixed ratios (lip sync).
//
// Frames are synthetic (a sequence number, a generation timestamp and a
// size) — the substitution DESIGN.md documents for 1993 audio/video
// hardware: QoS, buffering and synchronisation behaviour live entirely in
// the timing and sizing of frames, not their contents.
package stream

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/netsim"
	"repro/internal/qos"
)

// Frame is one media frame in flight.
type Frame struct {
	Stream string
	Seq    uint64
	Gen    time.Duration // generation (capture) time
	Size   int
	Media  string // "audio", "video", ...
}

// Tier is one quality level a source can produce, best first.
type Tier struct {
	Name     string
	Interval time.Duration // frame period
	Size     int           // bytes per frame
	Contract qos.Params    // what this tier promises end-to-end
}

// ErrNoTiers is returned for a stream configured without tiers.
var ErrNoTiers = errors.New("stream: no tiers configured")

// Source generates frames of the current tier at its interval and sends
// them through its fabric endpoint to every sink (group delivery when
// len(sinks) > 1).
type Source struct {
	sim   *netsim.Sim
	ep    fabric.Endpoint
	id    string
	media string
	sinks []string
	tiers []Tier
	cur   int
	seq   uint64
	run   bool
	epoch int // invalidates scheduled ticks after Stop/SetTier
}

// NewSource creates a stream source on the given fabric endpoint; the
// source only sends, so the endpoint's handler side stays free for a
// co-located sink.
func NewSource(sim *netsim.Sim, ep fabric.Endpoint, id, media string, sinks []string, tiers []Tier) (*Source, error) {
	if len(tiers) == 0 {
		return nil, ErrNoTiers
	}
	return &Source{
		sim: sim, ep: ep, id: id, media: media,
		sinks: append([]string(nil), sinks...),
		tiers: append([]Tier(nil), tiers...),
	}, nil
}

// Tier returns the index of the current tier.
func (s *Source) Tier() int { return s.cur }

// CurrentTier returns the current tier value.
func (s *Source) CurrentTier() Tier { return s.tiers[s.cur] }

// Start begins frame generation.
func (s *Source) Start() {
	if s.run {
		return
	}
	s.run = true
	s.epoch++
	s.tick(s.epoch)
}

// Stop halts frame generation.
func (s *Source) Stop() {
	s.run = false
	s.epoch++
}

// SetTier switches quality levels (adaptation); generation continues at the
// new interval.
func (s *Source) SetTier(i int) error {
	if i < 0 || i >= len(s.tiers) {
		return fmt.Errorf("stream: tier %d out of range", i)
	}
	s.cur = i
	if s.run {
		s.epoch++
		s.tick(s.epoch)
	}
	return nil
}

func (s *Source) tick(epoch int) {
	if !s.run || epoch != s.epoch {
		return
	}
	t := s.tiers[s.cur]
	s.seq++
	f := &Frame{Stream: s.id, Seq: s.seq, Gen: s.sim.Now(), Size: t.Size, Media: s.media}
	for _, dst := range s.sinks {
		// Loss and partitions surface at the sinks as QoS violations.
		_ = s.ep.Send(dst, f, t.Size)
	}
	s.sim.At(t.Interval, func() { s.tick(epoch) })
}

// SinkStats aggregates sink playout behaviour.
type SinkStats struct {
	Received int
	Played   int
	Skipped  int // playout slots whose frame had not arrived
	Late     int // frames that arrived after their slot (dropped)
}

// Sink receives, buffers and plays out one stream. The first frame fixes a
// playout offset (wall time minus media time, including the jitter-buffer
// depth); frame n then plays at Gen(n) + offset. The buffer trades Depth of
// extra latency for immunity to Depth of jitter. When the buffer drains the
// sink goes idle and resumes on the next arrival, so a finished stream
// leaves no pending simulator events.
type Sink struct {
	sim      *netsim.Sim
	id       string
	interval time.Duration
	depth    time.Duration

	buf      map[uint64]*Frame
	started  bool
	playing  bool
	offset   time.Duration // wall-clock playout time minus media (Gen) time
	nextSlot uint64
	nextAt   time.Duration
	epoch    int
	stats    SinkStats
	monitor  *qos.Monitor

	// OnPlay observes each playout slot: the frame (nil if skipped) and the
	// wall-clock slot time.
	OnPlay func(f *Frame, slot time.Duration)
	// group, when set, ties this sink's playout offset to its sync group's
	// shared media-to-wall mapping (continuous synchronisation).
	group *SyncGroup

	lastGen time.Duration // Gen of the most recently played frame
}

// NewSink creates a sink for frames arriving at the given interval with a
// jitter buffer of the given depth. Attach it to a node with Handle.
func NewSink(sim *netsim.Sim, id string, interval, depth time.Duration) *Sink {
	return &Sink{
		sim: sim, id: id, interval: interval, depth: depth,
		buf: make(map[uint64]*Frame),
	}
}

// SetMonitor attaches a QoS monitor; the sink feeds it arrivals and
// expectations.
func (k *Sink) SetMonitor(m *qos.Monitor) { k.monitor = m }

// Monitor returns the attached monitor (nil if none).
func (k *Sink) Monitor() *qos.Monitor { return k.monitor }

// Stats returns accumulated statistics.
func (k *Sink) Stats() SinkStats { return k.stats }

// LastGen returns the generation timestamp of the last played frame (the
// sink's stream position, used for skew measurement).
func (k *Sink) LastGen() time.Duration { return k.lastGen }

// SetInterval retunes the sink to a new frame period (after adaptation).
func (k *Sink) SetInterval(d time.Duration) { k.interval = d }

// Handle ingests a frame; it is a fabric.Handler, so wire it straight into
// the sink's endpoint with SetHandler.
func (k *Sink) Handle(from string, payload any, size int) {
	f, ok := payload.(*Frame)
	if !ok {
		return
	}
	now := k.sim.Now()
	k.stats.Received++
	if k.monitor != nil {
		k.monitor.Arrive(f.Gen, now, f.Size)
	}
	if k.started && f.Seq < k.nextSlot {
		k.stats.Late++
		return
	}
	k.buf[f.Seq] = f
	switch {
	case !k.started:
		k.started = true
		k.offset = now + k.depth - f.Gen
		if k.group != nil {
			// Continuous sync: the group converges on the slowest member's
			// mapping so all members play one shared media timeline.
			k.offset = k.group.join(k, k.offset, now)
		}
		k.resume(f, now)
	case !k.playing:
		// Idle (buffer had drained); resume at the arriving frame.
		k.resume(f, now)
	}
}

// SyncGroup ties sinks into one continuous-synchronisation group (lip
// sync): all members share a media-to-wall playout mapping, chosen as the
// slowest member's natural mapping so no member is asked to play frames it
// cannot yet have.
type SyncGroup struct {
	members []*Sink
	offset  time.Duration
	any     bool
}

// NewSyncGroup groups the sinks for continuous synchronisation. Call before
// streaming starts.
func NewSyncGroup(members ...*Sink) *SyncGroup {
	g := &SyncGroup{members: members}
	for _, m := range members {
		m.group = g
	}
	return g
}

// join merges a starting member's natural offset into the group and returns
// the offset the member should use. A larger (slower) offset rebases every
// already-playing member.
func (g *SyncGroup) join(who *Sink, candidate time.Duration, now time.Duration) time.Duration {
	if !g.any || candidate > g.offset {
		g.any = true
		delta := candidate - g.offset
		g.offset = candidate
		for _, m := range g.members {
			if m == who || !m.started {
				continue
			}
			m.rebase(delta, now)
		}
	}
	return g.offset
}

// rebase delays a playing sink's mapping by delta (the group adopted a
// slower member).
func (k *Sink) rebase(delta, now time.Duration) {
	k.offset += delta
	if !k.playing {
		return
	}
	k.nextAt += delta
	k.epoch++
	ep := k.epoch
	d := k.nextAt - now
	if d < 0 {
		d = 0
	}
	k.sim.At(d, func() { k.playSlot(ep) })
}

// resume schedules playout starting from frame f.
func (k *Sink) resume(f *Frame, now time.Duration) {
	k.nextSlot = f.Seq
	k.nextAt = f.Gen + k.offset
	if k.nextAt < now {
		k.nextAt = now
	}
	k.playing = true
	k.epoch++
	ep := k.epoch
	k.sim.At(k.nextAt-now, func() { k.playSlot(ep) })
}

func (k *Sink) playSlot(epoch int) {
	if epoch != k.epoch {
		return
	}
	seq := k.nextSlot
	k.nextSlot++
	f := k.buf[seq]
	delete(k.buf, seq)
	if f != nil {
		k.stats.Played++
		k.lastGen = f.Gen
	} else {
		k.stats.Skipped++
	}
	if k.OnPlay != nil {
		k.OnPlay(f, k.sim.Now())
	}
	if len(k.buf) == 0 {
		// Buffer drained: go idle; the next arrival resumes playout.
		k.playing = false
		return
	}
	k.nextAt += k.interval
	now := k.sim.Now()
	delay := k.nextAt - now
	if delay < 0 {
		delay = 0
	}
	k.sim.At(delay, func() { k.playSlot(epoch) })
}

// Stop halts playout.
func (k *Sink) Stop() { k.epoch++ }

// Skew returns the media-time distance between two sinks' playout positions
// — the lip-sync error.
func Skew(a, b *Sink) time.Duration {
	d := a.lastGen - b.lastGen
	if d < 0 {
		d = -d
	}
	return d
}
