package wiretest

import (
	"fmt"
	"strings"
	"testing"
)

// recorder collects what Check reports instead of failing the test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

type inner struct {
	A, B   int
	hidden int
}

type outer struct {
	Name  string
	In    inner
	List  []inner
	Next  *outer
	Extra map[string]inner
}

func identity(v any) (any, error) { return v, nil }

func TestCheck(t *testing.T) {
	full := outer{Name: "x", In: inner{A: 1}, List: []inner{{B: 2}},
		Next: &outer{Extra: map[string]inner{"k": {}}}}
	dropName := func(v any) (any, error) {
		o := v.(outer)
		o.Name = ""
		return o, nil
	}
	noName := outer{In: inner{A: 1}, List: []inner{{B: 2}}, Next: &outer{Extra: map[string]inner{"k": {}}}}
	for _, c := range []struct {
		name   string
		values map[string]any
		rt     func(any) (any, error)
		unsent map[string][]string
		want   []string
	}{
		{"every field set once", map[string]any{"full": full}, identity, nil, nil},
		{"a field left to the carrier", map[string]any{"v": noName}, dropName,
			map[string][]string{"wiretest.outer": {"wiretest.outer.Name"}}, nil},
		{"a field left to the carrier but set", map[string]any{"full": full}, identity,
			map[string][]string{"wiretest.outer": {"wiretest.outer.Name"}}, []string{
				"wiretest.outer: field wiretest.outer.Name is left to the carrier"}},
		{"an unsent name that is no field", map[string]any{"full": full}, identity,
			map[string][]string{"wiretest.outer": {"wiretest.inner.hidden", "wiretest.outer.Nope"}}, []string{
				"wiretest.outer: unsent names wiretest.inner.hidden", "wiretest.outer: unsent names wiretest.outer.Nope"}},
		{"a field zero everywhere", map[string]any{"a": outer{Name: "x"}, "b": outer{List: []inner{{}}}}, identity, nil, []string{
			"wiretest.outer: field wiretest.outer.In", "wiretest.outer: field wiretest.inner.A",
			"wiretest.outer: field wiretest.inner.B", "wiretest.outer: field wiretest.outer.Next",
			"wiretest.outer: field wiretest.outer.Extra"}},
		{"a field dropped on the wire", map[string]any{"full": full}, dropName, nil, []string{"full: round trip gave"}},
		{"an error", map[string]any{"v": inner{A: 1, B: 1}}, func(any) (any, error) { return nil, fmt.Errorf("boom") },
			nil, []string{"v: boom"}},
	} {
		r := &recorder{TB: t}
		Check(r, c.values, c.rt, c.unsent)
		if len(r.errs) != len(c.want) {
			t.Errorf("%s: got %q, want %d reports starting %q", c.name, r.errs, len(c.want), c.want)
			continue
		}
		for i, w := range c.want {
			if !strings.HasPrefix(r.errs[i], w) {
				t.Errorf("%s: report %d is %q, want it to start %q", c.name, i, r.errs[i], w)
			}
		}
	}
}
