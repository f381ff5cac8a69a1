package vclock

import (
	"testing"
	"testing/quick"
)

func TestTickAndGet(t *testing.T) {
	v := New()
	if got := v.Get("a"); got != 0 {
		t.Fatalf("fresh clock Get = %d, want 0", got)
	}
	v.Tick("a").Tick("a").Tick("b")
	if got := v.Get("a"); got != 2 {
		t.Errorf("Get(a) = %d, want 2", got)
	}
	if got := v.Get("b"); got != 1 {
		t.Errorf("Get(b) = %d, want 1", got)
	}
}

func TestCompareBasics(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want Ordering
	}{
		{"empty vs empty", New(), New(), Equal},
		{"equal", VC{"a": 1, "b": 2}, VC{"a": 1, "b": 2}, Equal},
		{"before", VC{"a": 1}, VC{"a": 2}, Before},
		{"after", VC{"a": 3}, VC{"a": 1}, After},
		{"before with extra site", VC{"a": 1}, VC{"a": 1, "b": 1}, Before},
		{"after with extra site", VC{"a": 1, "b": 1}, VC{"a": 1}, After},
		{"concurrent", VC{"a": 1, "b": 0}, VC{"a": 0, "b": 1}, Concurrent},
		{"concurrent disjoint", VC{"a": 1}, VC{"b": 1}, Concurrent},
		{"zero entries ignored", VC{"a": 1, "b": 0}, VC{"a": 1}, Equal},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("Compare(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	a := VC{"a": 2, "b": 1}
	b := VC{"a": 1, "b": 1}
	if a.Compare(b) != After || b.Compare(a) != Before {
		t.Errorf("antisymmetry violated: %v vs %v", a.Compare(b), b.Compare(a))
	}
}

func TestMerge(t *testing.T) {
	a := VC{"a": 3, "b": 1}
	b := VC{"b": 5, "c": 2}
	a.Merge(b)
	want := VC{"a": 3, "b": 5, "c": 2}
	if a.Compare(want) != Equal {
		t.Errorf("Merge = %v, want %v", a, want)
	}
}

func TestMergeDominates(t *testing.T) {
	a := VC{"a": 1}
	b := VC{"b": 4}
	m := a.Clone().Merge(b)
	if a.Compare(m) != Before {
		t.Errorf("a should be Before merge, got %v", a.Compare(m))
	}
	if b.Compare(m) != Before {
		t.Errorf("b should be Before merge, got %v", b.Compare(m))
	}
}

func TestCloneIndependence(t *testing.T) {
	a := VC{"a": 1}
	c := a.Clone()
	c.Tick("a")
	if a.Get("a") != 1 {
		t.Errorf("Clone is not independent: a = %v", a)
	}
}

func TestDeliverable(t *testing.T) {
	recv := VC{"p": 2, "q": 1}
	tests := []struct {
		name   string
		msg    VC
		sender string
		want   bool
	}{
		{"next from sender", VC{"p": 3, "q": 1}, "p", true},
		{"gap from sender", VC{"p": 4, "q": 1}, "p", false},
		{"duplicate", VC{"p": 2, "q": 1}, "p", false},
		{"missing dependency", VC{"p": 3, "q": 2}, "p", false},
		{"older dependency ok", VC{"p": 3, "q": 0}, "p", true},
		{"unknown third site dep", VC{"p": 3, "r": 1}, "p", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Deliverable(tt.msg, tt.sender, recv); got != tt.want {
				t.Errorf("Deliverable(%v, %q, %v) = %v, want %v", tt.msg, tt.sender, recv, got, tt.want)
			}
		})
	}
}

func TestString(t *testing.T) {
	v := VC{"b": 2, "a": 1}
	if got := v.String(); got != "{a:1 b:2}" {
		t.Errorf("String = %q, want {a:1 b:2}", got)
	}
}

func TestLamport(t *testing.T) {
	var l Lamport
	if l.Now() != 0 {
		t.Fatalf("zero Lamport Now = %d", l.Now())
	}
	if got := l.Tick(); got != 1 {
		t.Errorf("Tick = %d, want 1", got)
	}
	if got := l.Observe(10); got != 11 {
		t.Errorf("Observe(10) = %d, want 11", got)
	}
	if got := l.Observe(3); got != 12 {
		t.Errorf("Observe(3) = %d, want 12 (monotone)", got)
	}
}

// fromQuick builds a small VC from quick-generated data, keeping the site
// space tiny so comparisons hit interesting cases.
func fromQuick(xs [4]uint8) VC {
	sites := [4]string{"a", "b", "c", "d"}
	v := New()
	for i, x := range xs {
		if x%4 != 0 { // leave some sites absent
			v[sites[i]] = uint64(x % 8)
		}
	}
	return v
}

func TestQuickCompareDual(t *testing.T) {
	// Property: Compare is dual under argument swap.
	f := func(xa, xb [4]uint8) bool {
		a, b := fromQuick(xa), fromQuick(xb)
		ab, ba := a.Compare(b), b.Compare(a)
		switch ab {
		case Equal:
			return ba == Equal
		case Concurrent:
			return ba == Concurrent
		case Before:
			return ba == After
		case After:
			return ba == Before
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIsLUB(t *testing.T) {
	// Property: merge is an upper bound of both inputs.
	f := func(xa, xb [4]uint8) bool {
		a, b := fromQuick(xa), fromQuick(xb)
		m := a.Clone().Merge(b)
		ca, cb := a.Compare(m), b.Compare(m)
		okA := ca == Before || ca == Equal
		okB := cb == Before || cb == Equal
		return okA && okB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeCommutative(t *testing.T) {
	f := func(xa, xb [4]uint8) bool {
		a, b := fromQuick(xa), fromQuick(xb)
		m1 := a.Clone().Merge(b)
		m2 := b.Clone().Merge(a)
		return m1.Compare(m2) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIdempotent(t *testing.T) {
	f := func(xa [4]uint8) bool {
		a := fromQuick(xa)
		m := a.Clone().Merge(a)
		return m.Compare(a) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickTickAdvances(t *testing.T) {
	f := func(xa [4]uint8, which uint8) bool {
		a := fromQuick(xa)
		site := []string{"a", "b", "c", "d"}[which%4]
		before := a.Clone()
		a.Tick(site)
		return before.Compare(a) == Before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExplicitZerosIgnored(t *testing.T) {
	// Property: an explicit zero entry means the same as an absent one,
	// against the clock without it and against any third clock. fromQuick
	// never writes a zero, so the mask adds them, on one site outside its
	// space too.
	f := func(xa, xc [4]uint8, mask uint8) bool {
		a, c := fromQuick(xa), fromQuick(xc)
		z := a.Clone()
		for i, site := range []string{"a", "b", "c", "d", "e"} {
			if _, ok := z[site]; !ok && mask&(1<<i) != 0 {
				z[site] = 0
			}
		}
		return z.Compare(a) == Equal && a.Compare(z) == Equal &&
			z.Compare(c) == a.Compare(c) && c.Compare(z) == c.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompare(b *testing.B) {
	x := VC{"a": 1, "b": 2, "c": 3, "d": 4}
	y := VC{"a": 1, "b": 3, "c": 2, "d": 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Compare(y)
	}
}

func TestConvenienceAccessors(t *testing.T) {
	a := VC{"a": 1}
	b := VC{"a": 2}
	if !a.HappensBefore(b) || b.HappensBefore(a) {
		t.Error("HappensBefore wrong")
	}
	c := VC{"b": 1}
	if !a.ConcurrentWith(c) || a.ConcurrentWith(b) {
		t.Error("ConcurrentWith wrong")
	}
	for o, want := range map[Ordering]string{
		Before: "before", After: "after", Equal: "equal", Concurrent: "concurrent", Ordering(99): "Ordering(99)",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}
