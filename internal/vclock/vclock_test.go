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

func TestMerge(t *testing.T) {
	a := VC{"a": 3, "b": 1}
	b := VC{"b": 5, "c": 2}
	a.Merge(b)
	want := VC{"a": 3, "b": 5, "c": 2}
	if !equal(a, want) {
		t.Errorf("Merge = %v, want %v", a, want)
	}
}

func TestMergeDominates(t *testing.T) {
	a := VC{"a": 1}
	b := VC{"b": 4}
	m := a.Clone().Merge(b)
	if !leq(a, m) || equal(a, m) {
		t.Errorf("a = %v should be strictly below the merge %v", a, m)
	}
	if !leq(b, m) || equal(b, m) {
		t.Errorf("b = %v should be strictly below the merge %v", b, m)
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

// leq reports whether every component of a is at most b's, an absent
// component counting as zero.
func leq(a, b VC) bool {
	for k, n := range a {
		if n > b[k] {
			return false
		}
	}
	return true
}

func equal(a, b VC) bool { return leq(a, b) && leq(b, a) }

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

func TestQuickMergeIsLUB(t *testing.T) {
	// Property: merge is an upper bound of both inputs.
	f := func(xa, xb [4]uint8) bool {
		a, b := fromQuick(xa), fromQuick(xb)
		m := a.Clone().Merge(b)
		return leq(a, m) && leq(b, m)
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
		return equal(m1, m2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMergeIdempotent(t *testing.T) {
	f := func(xa [4]uint8) bool {
		a := fromQuick(xa)
		m := a.Clone().Merge(a)
		return equal(m, a)
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
		return leq(before, a) && !equal(before, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
