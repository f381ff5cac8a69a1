package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition graph — an edge A → B
// for every point where a mutex of class B is acquired while one of class A
// is held, including acquisitions buried in callees (propagated through the
// call summaries, across packages) — and flags every cycle as a potential
// deadlock, printing the full acquisition chain.
//
// Classes, not instances: all Members share one "group.Member.mu" node, so
// acquiring two instances of the same class nested is reported as a
// self-cycle. That is deliberate — sync.Mutex is not reentrant and nothing
// orders instances globally, so nested same-class acquisition deadlocks the
// moment two goroutines take the two instances in opposite orders.
//
// Callee propagation only considers locks a callee acquires *before* it
// releases any caller-held lock (the fabric.Outbox.Drain pattern — enter
// locked, release, re-acquire in a loop — must not read as a self-cycle).
func LockOrder() *Analyzer {
	return &Analyzer{
		Name: "lock-order",
		Doc:  "no cycles in the module-wide lock-acquisition graph (potential deadlock)",
		Run:  runLockOrder,
	}
}

// lockEdge is one witnessed acquisition: to acquired while from was held.
type lockEdge struct {
	from, to string
	pos      token.Position
	fn       string // enclosing function, for the chain printout
	via      string // call chain when the acquisition is inside a callee
	inScope  bool
}

func runLockOrder(m *Module) []Diagnostic {
	edges := make(map[string]map[string]lockEdge) // from -> to -> first witness
	addEdge := func(e lockEdge) {
		if e.from == "" || e.to == "" || isParamClass(e.from) || isParamClass(e.to) {
			return
		}
		tos := edges[e.from]
		if tos == nil {
			tos = make(map[string]lockEdge)
			edges[e.from] = tos
		}
		if old, ok := tos[e.to]; !ok || (!old.inScope && e.inScope) {
			tos[e.to] = e
		}
	}
	for _, mf := range m.byName {
		mf := mf
		scoped := inModuleScope(mf.pkg.Path)
		fname := mf.obj.Name()
		ev := walkEvents{
			onLock: func(call *ast.CallExpr, class string, read bool, st *lockState) {
				for _, h := range st.held {
					addEdge(lockEdge{from: h.class, to: class, pos: mf.pkg.position(call), fn: fname, inScope: scoped})
				}
			},
			onCall: func(call *ast.CallExpr, callee *modFunc, st *lockState) {
				if len(st.held) == 0 {
					return
				}
				w := &bodyWalker{m: m, p: mf.pkg, f: mf}
				for c, via := range callee.acquires {
					rc := w.substitute(c, call)
					if rc == "" {
						continue
					}
					chain := viaCall(callee, via)
					for _, h := range st.held {
						addEdge(lockEdge{from: h.class, to: rc, pos: mf.pkg.position(call), fn: fname, via: chain, inScope: scoped})
					}
				}
			},
		}
		m.walkAllUnits(mf, m.entryState(mf), ev)
		// Witnessed ordered pairs, including those concretized from helpers
		// taking mutexes by pointer; param-typed ends that never resolved to
		// a concrete class are dropped (addEdge skips them).
		for _, k := range sortedPairKeys(mf.pairs) {
			pf := mf.pairs[k]
			addEdge(lockEdge{from: pf.from, to: pf.to, pos: pf.pos, fn: fname, via: pf.via, inScope: scoped})
		}
	}
	return lockOrderCycles(edges)
}

// lockOrderCycles finds elementary cycles in the class graph and renders
// one diagnostic per cycle, chain included.
func lockOrderCycles(edges map[string]map[string]lockEdge) []Diagnostic {
	var nodes []string
	for from := range edges {
		nodes = append(nodes, from)
	}
	sort.Strings(nodes)
	var out []Diagnostic
	reported := make(map[string]bool) // canonical cycle key
	for _, start := range nodes {
		cycle := shortestCycle(edges, start)
		if cycle == nil {
			continue
		}
		// Canonical key: the sorted set of classes on the cycle.
		classes := make([]string, 0, len(cycle))
		inScope := false
		for _, e := range cycle {
			classes = append(classes, e.from)
			inScope = inScope || e.inScope
		}
		sort.Strings(classes)
		key := strings.Join(classes, "|")
		if reported[key] || !inScope {
			continue
		}
		reported[key] = true
		out = append(out, cycleDiagnostic(cycle))
	}
	return out
}

// shortestCycle BFSes from start back to itself; returns the edge chain or
// nil. Self-edges are length-1 cycles.
func shortestCycle(edges map[string]map[string]lockEdge, start string) []lockEdge {
	if e, ok := edges[start][start]; ok {
		return []lockEdge{e}
	}
	type queued struct {
		node string
		path []lockEdge
	}
	seen := map[string]bool{start: true}
	var q []queued
	for _, to := range sortedKeys(edges[start]) {
		e := edges[start][to]
		if to == start {
			continue
		}
		q = append(q, queued{to, []lockEdge{e}})
		seen[to] = true
	}
	for len(q) > 0 {
		cur := q[0]
		q = q[1:]
		for _, to := range sortedKeys(edges[cur.node]) {
			e := edges[cur.node][to]
			path := append(append([]lockEdge(nil), cur.path...), e)
			if to == start {
				return path
			}
			if !seen[to] {
				seen[to] = true
				q = append(q, queued{to, path})
			}
		}
	}
	return nil
}

func sortedPairKeys(m map[string]pairFact) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]lockEdge) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cycleDiagnostic renders the full acquisition chain:
//
//	lock-acquisition cycle A.mu → B.mu → A.mu: B.mu acquired at f.go:12 (in
//	Foo) while A.mu held; A.mu acquired at g.go:30 (in Bar, via helper)
//	while B.mu held
func cycleDiagnostic(cycle []lockEdge) Diagnostic {
	// Anchor the diagnostic at the in-scope witness if any, else the first.
	anchor := cycle[0]
	for _, e := range cycle {
		if e.inScope {
			anchor = e
			break
		}
	}
	var ring strings.Builder
	for _, e := range cycle {
		ring.WriteString(classShort(e.from) + " → ")
	}
	ring.WriteString(classShort(cycle[0].from))
	var steps []string
	for _, e := range cycle {
		step := fmt.Sprintf("%s acquired at %s:%d (in %s", classShort(e.to),
			shortFile(e.pos.Filename), e.pos.Line, e.fn)
		if e.via != "" {
			step += ", via " + e.via
		}
		step += fmt.Sprintf(") while %s held", classShort(e.from))
		steps = append(steps, step)
	}
	return Diagnostic{
		Pos:  anchor.pos,
		Rule: "lock-order",
		Message: "potential deadlock: lock-acquisition cycle " + ring.String() +
			"; " + strings.Join(steps, "; "),
	}
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
