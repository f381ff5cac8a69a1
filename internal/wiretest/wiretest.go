// Package wiretest checks that a hand-rolled wire codec carries every field
// of its types: a field both halves leave out round-trips while it is zero.
package wiretest

import (
	"reflect"
	"sort"
	"testing"
)

// Check round-trips each named value through rt, which encodes it and
// returns the decoded result in the value's own type. It fails t for a value
// that comes back different, and for an exported field, reached through
// exported fields, that no value of the same top-level type sets.
//
// unsent names, under a top-level type, the fields its wire form does not
// carry, such as a sender the transport already names, each as
// reflect prints its struct and name ("engine.MsgSubmit":
// {"ot.Submission.Site"}). Those are the other way round: every value must
// leave them zero, and a name that is no field of the type fails too.
func Check(t testing.TB, values map[string]any, rt func(any) (any, error), unsent map[string][]string) {
	t.Helper()
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var types []reflect.Type // in the order first seen
	set := make(map[reflect.Type]map[field]bool)
	for _, name := range names {
		v := values[name]
		got, err := rt(v)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("%s: round trip gave %#v, want %#v", name, got, v)
		}
		typ := reflect.TypeOf(v)
		if set[typ] == nil {
			types = append(types, typ)
			set[typ] = make(map[field]bool)
		}
		mark(reflect.ValueOf(v), set[typ])
	}
	for _, typ := range types {
		left := make(map[string]bool)
		for _, name := range unsent[typ.String()] {
			left[name] = true
		}
		for _, f := range fields(typ, make(map[reflect.Type]bool), left, nil) {
			name := f.in.String() + "." + f.in.Field(f.i).Name
			switch {
			case left[name] && set[typ][f]:
				t.Errorf("%s: field %s is left to the carrier, but a value sets it", typ, name)
			case !left[name] && !set[typ][f]:
				t.Errorf("%s: field %s is zero in every value: a round trip cannot show it survives the wire", typ, name)
			}
			delete(left, name)
		}
		for _, name := range unsent[typ.String()] {
			if left[name] {
				t.Errorf("%s: unsent names %s, which is no field of it", typ, name)
			}
		}
	}
}

// field is one struct field, by its struct type and index.
type field struct {
	in reflect.Type
	i  int
}

// fields appends to out every exported field reachable from t through
// exported fields, pointers, slices, arrays and map values, depth first. It
// does not descend into a field that unsent names: what lies under a field
// the wire does not carry is not carried either.
func fields(t reflect.Type, seen map[reflect.Type]bool, unsent map[string]bool, out []field) []field {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		return fields(t.Elem(), seen, unsent, out)
	case reflect.Struct:
		if seen[t] {
			return out
		}
		seen[t] = true
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			switch {
			case !f.IsExported():
			case unsent[t.String()+"."+f.Name]:
				out = append(out, field{t, i})
			default:
				out = fields(f.Type, seen, unsent, append(out, field{t, i}))
			}
		}
	}
	return out
}

// mark records in set every exported field that v, or a value inside it,
// holds non-zero.
func mark(v reflect.Value, set map[field]bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			mark(v.Elem(), set)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			mark(v.Index(i), set)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			mark(it.Value(), set)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if !v.Field(i).IsZero() {
				set[field{v.Type(), i}] = true
			}
			mark(v.Field(i), set)
		}
	}
}
