// Package awareness implements the explicit awareness mechanisms the paper
// sets against blanket concurrency transparency (§4.2.1): rather than hiding
// other users, the system computes *how aware* each user should be of each
// action and delivers notifications weighted accordingly.
//
// The spatial machinery follows the spatial model of interaction of Benford
// & Fahlén (DIVE, ECSCW'93), which the paper cites as the emerging approach:
// every entity projects an aura (potential interaction), a focus (where its
// attention lies) and a nimbus (how far its activity projects). Entity A's
// awareness of entity B combines A's focus evaluated at B's position with
// B's nimbus evaluated at A's position. Following Mariani & Prinz and the
// paper's phrase "spatial and temporal metrics", a temporal term boosts
// awareness between parties that interacted recently.
//
// Shared-document awareness maps straight onto the model by placing users at
// the coordinates of the section they are working on — the engine then
// yields the "read over the shoulder" behaviour of Figure 2b: a colleague
// focused on your section receives your edits at full strength, a colleague
// three sections away receives a peripheral murmur or nothing.
package awareness

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Vec is a position in the 2-D interaction space.
type Vec struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two positions.
func (v Vec) Dist(o Vec) float64 {
	dx, dy := v.X-o.X, v.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Entity is a participant (or artifact) in the space.
type Entity struct {
	ID  string
	Pos Vec
	// Aura is the interaction-potential radius: when two auras intersect
	// the entities can interact at all.
	Aura float64
	// Focus is the attention radius: how far this entity "looks".
	Focus float64
	// Nimbus is the projection radius: how far this entity's activity
	// carries.
	Nimbus float64
}

// Level grades awareness for UI purposes.
type Level int

const (
	// None means no awareness.
	None Level = iota + 1
	// Peripheral means one-sided awareness (focus or nimbus, not both).
	Peripheral
	// Full means mutual focus/nimbus overlap.
	Full
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case None:
		return "none"
	case Peripheral:
		return "peripheral"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Config tunes the awareness computation; the zero value enables both
// metrics with a 5-minute temporal half-life (ablation experiment F2a
// toggles the booleans).
type Config struct {
	DisableSpatial  bool
	DisableTemporal bool
	// HalfLife is the decay half-life of the temporal boost.
	HalfLife time.Duration
	// Threshold is the minimum weight for an event to be delivered.
	Threshold float64
}

func (c Config) halfLife() time.Duration {
	if c.HalfLife <= 0 {
		return 5 * time.Minute
	}
	return c.HalfLife
}

// Space is the interaction space plus the temporal interaction history. It
// is single-threaded like the other simulation-facing layers.
type Space struct {
	cfg      Config
	entities map[string]*Entity
	lastSeen map[[2]string]time.Duration // (observer, actor) -> last delivery time
	anySeen  map[[2]string]bool
}

// NewSpace creates an empty space.
func NewSpace(cfg Config) *Space {
	return &Space{
		cfg:      cfg,
		entities: make(map[string]*Entity),
		lastSeen: make(map[[2]string]time.Duration),
		anySeen:  make(map[[2]string]bool),
	}
}

// Place adds or replaces an entity.
func (s *Space) Place(e Entity) {
	cp := e
	s.entities[e.ID] = &cp
}

// IDs returns all entity IDs, sorted.
func (s *Space) IDs() []string {
	out := make([]string, 0, len(s.entities))
	for id := range s.entities {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// falloff maps distance within a radius to [0,1]: 1 at the centre, 0 at and
// beyond the radius.
func falloff(dist, radius float64) float64 {
	if radius <= 0 || dist >= radius {
		return 0
	}
	return 1 - dist/radius
}

// AuraCollide reports whether two entities' auras intersect — the spatial
// model's precondition for any interaction.
func (s *Space) AuraCollide(a, b string) bool {
	ea, ok := s.entities[a]
	if !ok {
		return false
	}
	eb, ok := s.entities[b]
	if !ok {
		return false
	}
	return ea.Pos.Dist(eb.Pos) < ea.Aura+eb.Aura
}

// SpatialWeight returns observer's awareness of actor on spatial grounds
// alone: focus(observer at actor's position) x nimbus(actor at observer's
// position), gated by aura collision.
func (s *Space) SpatialWeight(observer, actor string) float64 {
	o, ok := s.entities[observer]
	if !ok {
		return 0
	}
	a, ok := s.entities[actor]
	if !ok {
		return 0
	}
	if !s.AuraCollide(observer, actor) {
		return 0
	}
	d := o.Pos.Dist(a.Pos)
	return falloff(d, o.Focus) * falloff(d, a.Nimbus)
}

// LevelOf grades observer's awareness of actor.
func (s *Space) LevelOf(observer, actor string) Level {
	o, ok := s.entities[observer]
	if !ok {
		return None
	}
	a, ok := s.entities[actor]
	if !ok {
		return None
	}
	if !s.AuraCollide(observer, actor) {
		return None
	}
	d := o.Pos.Dist(a.Pos)
	inFocus := falloff(d, o.Focus) > 0
	inNimbus := falloff(d, a.Nimbus) > 0
	switch {
	case inFocus && inNimbus:
		return Full
	case inFocus || inNimbus:
		return Peripheral
	default:
		return None
	}
}

// RecordInteraction notes that observer attended to actor at time now (a
// direct message, a spoken exchange, a handoff) so the temporal metric can
// weight their future mutual awareness. The engine records deliveries
// automatically; this is for interactions that happen outside it.
func (s *Space) RecordInteraction(observer, actor string, now time.Duration) {
	key := [2]string{observer, actor}
	s.lastSeen[key] = now
	s.anySeen[key] = true
}

// temporalWeight returns the recency boost in [0.5, 1]: 1 immediately after
// an interaction, decaying to 0.5 for strangers.
func (s *Space) temporalWeight(observer, actor string, now time.Duration) float64 {
	key := [2]string{observer, actor}
	if !s.anySeen[key] {
		return 0.5
	}
	dt := now - s.lastSeen[key]
	hl := float64(s.cfg.halfLife())
	return 0.5 + 0.5*math.Exp(-math.Ln2*float64(dt)/hl)
}

// Weight computes the full awareness weight of observer for actor at time
// now, combining the spatial and temporal metrics per the configuration.
func (s *Space) Weight(observer, actor string, now time.Duration) float64 {
	spatial := 1.0
	if !s.cfg.DisableSpatial {
		spatial = s.SpatialWeight(observer, actor)
	}
	temporal := 1.0
	if !s.cfg.DisableTemporal {
		temporal = s.temporalWeight(observer, actor, now)
	}
	return spatial * temporal
}

// Event is an action published into the space.
type Event struct {
	Actor string
	Kind  string // free-form: "edit", "join", "strip-moved", ...
	Body  any
	At    time.Duration
}

// Delivery is one weighted notification of an event to an observer.
type Delivery struct {
	Event    Event
	Observer string
	Weight   float64
	Level    Level
}

// Stats aggregates engine activity.
type Stats struct {
	Published int
	Delivered int
	Filtered  int // suppressed below threshold
}

// Engine distributes events through a space to per-observer sinks.
type Engine struct {
	space *Space
	sinks map[string]func(Delivery)
	stats Stats
}

// NewEngine creates an engine over the space.
func NewEngine(space *Space) *Engine {
	return &Engine{space: space, sinks: make(map[string]func(Delivery))}
}

// Stats returns accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// Subscribe registers observer's notification sink.
func (e *Engine) Subscribe(observer string, sink func(Delivery)) {
	e.sinks[observer] = sink
}

// Publish distributes ev to every subscribed observer whose awareness
// weight for the actor meets the threshold, and records the interaction for
// the temporal metric. It returns the deliveries made.
func (e *Engine) Publish(ev Event) []Delivery {
	e.stats.Published++
	var out []Delivery
	for _, observer := range e.space.IDs() {
		if observer == ev.Actor {
			continue
		}
		sink, subscribed := e.sinks[observer]
		if !subscribed {
			continue
		}
		w := e.space.Weight(observer, ev.Actor, ev.At)
		if w < e.space.cfg.Threshold || w == 0 {
			e.stats.Filtered++
			continue
		}
		key := [2]string{observer, ev.Actor}
		e.space.lastSeen[key] = ev.At
		e.space.anySeen[key] = true
		d := Delivery{Event: ev, Observer: observer, Weight: w, Level: e.space.LevelOf(observer, ev.Actor)}
		e.stats.Delivered++
		out = append(out, d)
		sink(d)
	}
	return out
}

// SectionPos maps a document section index onto the interaction space, so
// document-centred awareness can reuse the spatial machinery: sections sit
// one unit apart along the X axis.
func SectionPos(section int) Vec {
	return Vec{X: float64(section), Y: 0}
}
