// Package hotalloc exercises the hot-alloc analyzer: functions annotated
// //cscw:hotpath — and everything they statically reach — must not box,
// close over, build maps, grow bare appends, copy string/[]byte, or call
// fmt outside error paths.
package hotalloc

import "fmt"

type point struct{ X, Y int }

func sink(v any)        {}
func register(f func()) {}

type ticker struct{}

func (t ticker) fire() {}

// hotBox boxes a concrete struct into an interface parameter; the pointer
// variant already fits the interface data word and must pass.
//
//cscw:hotpath
func hotBox(p point) {
	sink(p) // want "argument boxes point into any"
	sink(&p)
}

// hotClosure allocates closures three ways: a plain literal, a method
// value, and a literal capturing the loop variable.
//
//cscw:hotpath
func hotClosure(ts []ticker) {
	register(func() {}) // want "function literal"
	for _, t := range ts {
		register(t.fire)              // want "method value t.fire"
		register(func() { t.fire() }) // want "closure capturing loop variable t"
	}
}

// hotAppend grows a zero-capacity target inside the loop; the preallocated
// variant below it must pass.
//
//cscw:hotpath
func hotAppend(vs []int) []int {
	var out []int
	for _, v := range vs {
		out = append(out, v) // want "append grows out in a loop"
	}
	pre := make([]int, 0, len(vs))
	for _, v := range vs {
		pre = append(pre, v)
	}
	_ = pre
	return out
}

// hotMap pays a map allocation per call, both via make and via a literal.
//
//cscw:hotpath
func hotMap(keys []string) int {
	seen := make(map[string]bool, len(keys)) // want "map allocation"
	idx := map[string]int{"": 0}             // want "map literal allocation"
	for _, k := range keys {
		seen[k] = true
	}
	return len(seen) + len(idx)
}

// hotFmt calls into fmt on the success path.
//
//cscw:hotpath
func hotFmt(n int) string {
	return fmt.Sprintf("n=%d", n) // want "call to fmt.Sprintf"
}

// hotColdPaths must stay silent: the fmt.Errorf constructions sit on error
// exits (a direct error return and an err != nil guard body), which the
// cold-path analysis exempts.
//
//cscw:hotpath
func hotColdPaths(vs []int) (int, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("hotalloc: empty input")
	}
	total := 0
	for _, v := range vs {
		total += v
	}
	if err := validate(total); err != nil {
		return 0, fmt.Errorf("hotalloc: %w", err)
	}
	return total, nil
}

func validate(n int) error { return nil }

// helper carries no annotation of its own: it is hot because hotCaller
// reaches it through a static call.
func helper(keys []string) map[string]bool {
	return make(map[string]bool, len(keys)) // want "map allocation.*reached from //cscw:hotpath function hotCaller"
}

//cscw:hotpath
func hotCaller(keys []string) map[string]bool {
	return helper(keys)
}

type doer interface{ do() }

// hotIface calls through an interface: a hot-path boundary the closure
// does not cross, so implementations stay unchecked here.
//
//cscw:hotpath
func hotIface(d doer) {
	d.do()
}

// hotIgnored shows a justified suppression: an ignore with a reason
// silences the boxing finding.
//
//cscw:hotpath
func hotIgnored(p point) {
	//lint:ignore hot-alloc fixture: a justified boxing with a reason suppresses
	sink(p)
}

// hotMalformed shows that a reason-less directive suppresses nothing: the
// directive itself is reported and the boxing still fires.
//
//cscw:hotpath
func hotMalformed(p point) {
	//lint:ignore hot-alloc
	// want(-1) "lint-directive.*need a rule name and a reason"
	// want(1) "argument boxes point into any"
	sink(p)
}

// hotConvert copies between string and []byte both ways, once as the key
// a map store keeps; the conversions the compiler makes without a copy (the
// key of a map read, a comparison operand, a switch tag, a range operand)
// must pass.
//
//cscw:hotpath
func hotConvert(b []byte, s string, m map[string]int) (string, []byte, int) {
	n := m[string(b)]
	m[string(b)] = n // want "conversion copies ..byte into a new string"
	if string(b) == s {
		n++
	}
	switch string(b) {
	case "x":
		n++
	}
	for _, c := range []byte(s) {
		n += int(c)
	}
	return string(b), []byte(s), n // want "conversion copies ..byte into a new string" "conversion copies string into a new ..byte"
}
