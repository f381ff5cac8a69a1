package awareness

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func stdSpace() *Space {
	s := NewSpace(Config{DisableTemporal: true})
	s.Place(Entity{ID: "a", Pos: Vec{0, 0}, Aura: 10, Focus: 4, Nimbus: 4})
	s.Place(Entity{ID: "b", Pos: Vec{2, 0}, Aura: 10, Focus: 4, Nimbus: 4})
	s.Place(Entity{ID: "far", Pos: Vec{100, 0}, Aura: 10, Focus: 4, Nimbus: 4})
	return s
}

func TestVecDist(t *testing.T) {
	if d := (Vec{0, 0}).Dist(Vec{3, 4}); !approx(d, 5) {
		t.Errorf("Dist = %v", d)
	}
}

func TestAuraCollide(t *testing.T) {
	s := stdSpace()
	if !s.AuraCollide("a", "b") {
		t.Error("close entities should collide")
	}
	if s.AuraCollide("a", "far") {
		t.Error("distant entities should not collide")
	}
	if s.AuraCollide("a", "ghost") {
		t.Error("unknown entity should not collide")
	}
}

func TestSpatialWeight(t *testing.T) {
	s := stdSpace()
	// d=2, focus falloff = 1-2/4 = 0.5, nimbus same: weight 0.25.
	if w := s.SpatialWeight("a", "b"); !approx(w, 0.25) {
		t.Errorf("weight = %v, want 0.25", w)
	}
	if w := s.SpatialWeight("a", "far"); w != 0 {
		t.Errorf("far weight = %v", w)
	}
	// Same position: full weight.
	s.entities["b"].Pos = Vec{0, 0}
	if w := s.SpatialWeight("a", "b"); !approx(w, 1) {
		t.Errorf("coincident weight = %v", w)
	}
}

func TestSpatialWeightAsymmetry(t *testing.T) {
	// a has a wide focus; b projects a narrow nimbus. a's awareness of b
	// differs from b's awareness of a — the model is directional.
	s := NewSpace(Config{DisableTemporal: true})
	s.Place(Entity{ID: "a", Pos: Vec{0, 0}, Aura: 10, Focus: 8, Nimbus: 2})
	s.Place(Entity{ID: "b", Pos: Vec{4, 0}, Aura: 10, Focus: 8, Nimbus: 8})
	wab := s.SpatialWeight("a", "b") // focus(a)=1-4/8=.5, nimbus(b)=.5 -> .25
	wba := s.SpatialWeight("b", "a") // focus(b)=.5, nimbus(a)=0 -> 0
	if !approx(wab, 0.25) || wba != 0 {
		t.Errorf("wab=%v wba=%v", wab, wba)
	}
}

func TestLevels(t *testing.T) {
	s := NewSpace(Config{DisableTemporal: true})
	s.Place(Entity{ID: "a", Pos: Vec{0, 0}, Aura: 100, Focus: 5, Nimbus: 1})
	s.Place(Entity{ID: "b", Pos: Vec{3, 0}, Aura: 100, Focus: 5, Nimbus: 1})
	// a sees b in focus (3<5) but b's nimbus (1) doesn't reach: peripheral.
	if l := s.LevelOf("a", "b"); l != Peripheral {
		t.Errorf("level = %v, want peripheral", l)
	}
	s.Place(Entity{ID: "c", Pos: Vec{3, 0}, Aura: 100, Focus: 5, Nimbus: 5})
	if l := s.LevelOf("a", "c"); l != Full {
		t.Errorf("level = %v, want full", l)
	}
	s.Place(Entity{ID: "d", Pos: Vec{50, 0}, Aura: 100, Focus: 5, Nimbus: 5})
	if l := s.LevelOf("a", "d"); l != None {
		t.Errorf("level = %v, want none", l)
	}
	if l := s.LevelOf("a", "ghost"); l != None {
		t.Errorf("ghost level = %v", l)
	}
}

func TestTemporalBoost(t *testing.T) {
	s := NewSpace(Config{DisableSpatial: true, HalfLife: time.Minute})
	s.Place(Entity{ID: "a"})
	s.Place(Entity{ID: "b"})
	// Strangers: 0.5.
	if w := s.Weight("a", "b", 0); !approx(w, 0.5) {
		t.Errorf("stranger weight = %v", w)
	}
	// Record an interaction via the engine.
	e := NewEngine(s)
	e.Subscribe("a", func(Delivery) {})
	e.Publish(Event{Actor: "b", Kind: "edit", At: 0})
	if w := s.Weight("a", "b", 0); !approx(w, 1.0) {
		t.Errorf("immediate weight = %v", w)
	}
	if w := s.Weight("a", "b", time.Minute); !approx(w, 0.75) {
		t.Errorf("one-half-life weight = %v, want 0.75", w)
	}
	// Decays toward 0.5, never below.
	if w := s.Weight("a", "b", time.Hour); w < 0.5 || w > 0.51 {
		t.Errorf("stale weight = %v", w)
	}
}

func TestEngineThresholdFiltering(t *testing.T) {
	s := NewSpace(Config{DisableTemporal: true, Threshold: 0.2})
	s.Place(Entity{ID: "actor", Pos: Vec{0, 0}, Aura: 50, Focus: 10, Nimbus: 10})
	s.Place(Entity{ID: "near", Pos: Vec{1, 0}, Aura: 50, Focus: 10, Nimbus: 10})
	s.Place(Entity{ID: "edge", Pos: Vec{8, 0}, Aura: 50, Focus: 10, Nimbus: 10})
	e := NewEngine(s)
	var nearGot, edgeGot []Delivery
	e.Subscribe("near", func(d Delivery) { nearGot = append(nearGot, d) })
	e.Subscribe("edge", func(d Delivery) { edgeGot = append(edgeGot, d) })
	ds := e.Publish(Event{Actor: "actor", Kind: "edit", At: 0})
	// near: (1-0.1)^2 = .81 >= .2 -> delivered. edge: (1-0.8)^2=.04 -> filtered.
	if len(nearGot) != 1 || len(edgeGot) != 0 {
		t.Fatalf("near=%d edge=%d", len(nearGot), len(edgeGot))
	}
	if len(ds) != 1 || ds[0].Observer != "near" {
		t.Fatalf("deliveries = %+v", ds)
	}
	if ds[0].Level != Full {
		t.Errorf("level = %v", ds[0].Level)
	}
	st := e.Stats()
	if st.Published != 1 || st.Delivered != 1 || st.Filtered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineActorNotNotified(t *testing.T) {
	s := stdSpace()
	e := NewEngine(s)
	got := 0
	e.Subscribe("a", func(Delivery) { got++ })
	e.Publish(Event{Actor: "a", Kind: "edit", At: 0})
	if got != 0 {
		t.Error("actor should not hear its own event")
	}
}

func TestSectionPos(t *testing.T) {
	if p := SectionPos(3); p.X != 3 || p.Y != 0 {
		t.Errorf("SectionPos = %+v", p)
	}
}

func TestQuickWeightBounds(t *testing.T) {
	// Property: weights always lie in [0,1] for any geometry.
	f := func(ax, ay, bx, by int8, focus, nimbus, aura uint8) bool {
		s := NewSpace(Config{DisableTemporal: true})
		s.Place(Entity{ID: "a", Pos: Vec{float64(ax), float64(ay)},
			Aura: float64(aura), Focus: float64(focus), Nimbus: float64(nimbus)})
		s.Place(Entity{ID: "b", Pos: Vec{float64(bx), float64(by)},
			Aura: float64(aura), Focus: float64(focus), Nimbus: float64(nimbus)})
		w := s.Weight("a", "b", 0)
		return w >= 0 && w <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWeightMonotoneInDistance(t *testing.T) {
	// Property: for symmetric entities, awareness never increases with
	// distance along a ray.
	f := func(d1, d2 uint8) bool {
		near, far := float64(d1%50), float64(d2%50)
		if near > far {
			near, far = far, near
		}
		s := NewSpace(Config{DisableTemporal: true})
		s.Place(Entity{ID: "a", Pos: Vec{0, 0}, Aura: 100, Focus: 30, Nimbus: 30})
		s.Place(Entity{ID: "n", Pos: Vec{near, 0}, Aura: 100, Focus: 30, Nimbus: 30})
		s.Place(Entity{ID: "f", Pos: Vec{far, 0}, Aura: 100, Focus: 30, Nimbus: 30})
		return s.Weight("a", "n", 0) >= s.Weight("a", "f", 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevelString(t *testing.T) {
	if None.String() != "none" || Peripheral.String() != "peripheral" || Full.String() != "full" {
		t.Error("level names")
	}
}

func BenchmarkPublish(b *testing.B) {
	s := NewSpace(Config{})
	for i := 0; i < 16; i++ {
		s.Place(Entity{ID: string(rune('a' + i)), Pos: Vec{float64(i), 0}, Aura: 50, Focus: 8, Nimbus: 8})
	}
	e := NewEngine(s)
	for i := 0; i < 16; i++ {
		e.Subscribe(string(rune('a'+i)), func(Delivery) {})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Publish(Event{Actor: "a", Kind: "edit", At: time.Duration(i)})
	}
}

func TestRecordInteractionBoostsWeight(t *testing.T) {
	s := NewSpace(Config{DisableSpatial: true, HalfLife: time.Minute})
	s.Place(Entity{ID: "a"})
	s.Place(Entity{ID: "b"})
	if w := s.Weight("a", "b", time.Hour); !approx(w, 0.5) {
		t.Fatalf("stranger weight = %v", w)
	}
	s.RecordInteraction("a", "b", time.Hour)
	if w := s.Weight("a", "b", time.Hour); !approx(w, 1.0) {
		t.Errorf("post-interaction weight = %v", w)
	}
	// Directional: b's awareness of a is unaffected.
	if w := s.Weight("b", "a", time.Hour); !approx(w, 0.5) {
		t.Errorf("reverse weight = %v", w)
	}
}

func TestDefaultHalfLife(t *testing.T) {
	if got := (Config{}).halfLife(); got != 5*time.Minute {
		t.Errorf("default half-life = %v", got)
	}
}
