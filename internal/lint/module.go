package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the shared infrastructure for the analyzers. The Module view
// indexes every function declaration across all loaded packages, names
// locks by their *class* (the struct field or package variable, not the
// instance), and evaluates a held-lock state over each body's CFG (cfg.go),
// so early returns, breaks, defer-unlocks and TryLock branches do not
// poison the fallthrough path. Control flow is cfg.go's business; what this
// file knows is what one shallow node does to the state.
//
// Every declared function gets one summary (modFunc): its lock facts
// (delta, leaves) and its channel facts (ops, blockDesc, retMake) come from
// one walk of its body per round, and one fixpoint driver (fixpoint) runs
// that step upward and the entry-context step downward until nothing
// changes. callgraph.go names channels and builds the module's channel
// index from the converged summaries.
//
// Lock classes are canonical strings:
//
//	"repro/internal/group.Member.mu"   struct-field mutex, via any instance
//	"repro/internal/foo.globalMu"      package-level mutex variable
//	"$param:2"                         mutex passed by pointer (substituted
//	                                   with the argument's class at call sites)
//
// Class-based (instance-insensitive) reasoning trades some precision for
// tractability: locking a.mu "covers" b.field for a distinct instance b of
// the same type, a deliberate false-negative bias.

// Module is the whole-module view handed to every Analyzer.
type Module struct {
	Pkgs []*Package

	funcs  map[types.Object]*modFunc
	byName []*modFunc // deterministic iteration order

	// cfgs memoizes one CFG per function or closure body (cfgOf).
	cfgs map[*ast.BlockStmt]*cfg

	// chans is the channel index (callgraph.go), built from the summaries:
	// every make/send/recv/close site per channel class.
	chans map[string]*chanInfo
}

// modFunc is one declared function with its interprocedural summaries.
type modFunc struct {
	obj  types.Object
	decl *ast.FuncDecl
	pkg  *Package

	// The summary, computed by summarize (closure bodies excluded: they run
	// later, off the caller's lock path; each closure is its own unit in
	// reporting passes).
	delta  int      // net lock delta (negative: releases caller's locks)
	leaves []string // classes left held on return when delta > 0
	// ops is the set of channel operations reachable from the body, keyed
	// by kind|class (chanFactKey); class may be a $param:i placeholder.
	ops map[string]chanFact
	// blockDesc describes the first blocking behaviour the body can reach
	// ("a channel send", "time.Sleep", "net.Conn.Read (blocking I/O)", ...),
	// or "" when nothing blocking was found.
	blockDesc string
	// retMake classifies single-result channel constructors: 0 means not
	// one, chanUnbuffered/chanBuffered mean `return make(chan T[, n])`,
	// directly or through another constructor.
	retMake int8

	// cycle numbers the call cycle the function sits on (0: none); a call
	// into the caller's own cycle does not apply the callee's lock effect.
	cycle int

	// Entry context: lock classes held at every static call site
	// (intersection).
	entry map[string]bool

	// addrTaken: the function is used as a value (callback, handler), so it
	// can run from anywhere; its entry context is forced empty.
	addrTaken bool
}

// NewModule indexes the packages, computes every function's summary and
// entry context, and builds the channel index the analyzers share.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		funcs: make(map[types.Object]*modFunc),
		cfgs:  make(map[*ast.BlockStmt]*cfg),
		chans: make(map[string]*chanInfo),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := p.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				mf := &modFunc{obj: obj, decl: fd, pkg: p, ops: make(map[string]chanFact)}
				m.funcs[obj] = mf
				m.byName = append(m.byName, mf)
			}
		}
	}
	sort.Slice(m.byName, func(i, j int) bool {
		pi, pj := m.byName[i].pkg.position(m.byName[i].decl), m.byName[j].pkg.position(m.byName[j].decl)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	m.markAddrTaken()
	m.markCycles()
	m.fixpoint(m.summarize, nil)
	m.entryFixpoint()
	m.collectMakes()
	m.collectSites()
	return m
}

// inModuleScope limits interprocedural reporting to the packages whose
// concurrency discipline the repo owns: everything under internal/ plus the
// command mains. Unlike block-lock's mutex half, internal/transport is in
// scope: its guarded fields and channel protocols are checked like any
// other package's.
func inModuleScope(path string) bool {
	return strings.HasPrefix(path, modulePrefix+"/internal/") ||
		strings.HasPrefix(path, modulePrefix+"/cmd/")
}

// --- lock classes --------------------------------------------------------

// classOf names the lock class of a mutex expression (the receiver of a
// Lock/Unlock call, or a &x.mu argument). Unresolvable instances (locals
// aliasing unknown storage) return "" and are skipped: false negatives over
// false positives.
func classOf(p *Package, f *modFunc, e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	if star, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(star.X)
	}
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return fieldClass(p, e)
	case *ast.Ident:
		class, _ := varClass(p, f, e, isMutexType)
		return class
	}
	return ""
}

// varClass is the part of naming an identifier that mutexes (classOf) and
// channels (chanClassOf) share: a package-level variable is "pkgpath.name"
// whatever its type; inside f, a variable whose type satisfies kind is
// "$param:i" when it is f's i-th parameter — named positionally so call
// sites can substitute the argument's class — and is otherwise returned as
// local, for the caller to name or ignore.
func varClass(p *Package, f *modFunc, id *ast.Ident, kind func(types.Type) bool) (class string, local *types.Var) {
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return "", nil
	}
	if v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name(), nil
	}
	if f == nil || !kind(v.Type()) {
		return "", nil
	}
	if f.decl.Type.Params != nil {
		i := 0
		for _, field := range f.decl.Type.Params.List {
			for _, name := range field.Names {
				if p.Info.Defs[name] == obj {
					return paramClass(i), nil
				}
				i++
			}
		}
	}
	return "", v
}

// fieldClass names a struct-field access "pkgpath.Type.field", or "" when
// the base is not a named type.
func fieldClass(p *Package, e *ast.SelectorExpr) string {
	tv, ok := p.Info.Types[e.X]
	if !ok || tv.Type == nil {
		return ""
	}
	base := tv.Type
	if ptr, pok := base.Underlying().(*types.Pointer); pok {
		base = ptr.Elem()
	}
	named, nok := base.(*types.Named)
	if !nok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
}

func paramClass(i int) string {
	return "$param:" + string(rune('0'+i))
}

func isParamClass(c string) bool { return strings.HasPrefix(c, "$param:") }

// paramArg returns the argument a callee summary's $param:i class stands
// for at a call site, or nil when the call does not pass one (classOf and
// chanClassOf name a nil expression "").
func paramArg(class string, call *ast.CallExpr) ast.Expr {
	i := int(class[len("$param:")] - '0')
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	return call.Args[i]
}

// classShort renders a class for diagnostics: package short name, type,
// field — "group.Member.mu".
func classShort(class string) string {
	slash := strings.LastIndex(class, "/")
	return class[slash+1:]
}

// embeddedClass names the class of an embedded-mutex method call x.Lock()
// where x's struct type embeds sync.Mutex.
func embeddedClass(p *Package, sel *ast.SelectorExpr) string {
	s := p.Info.Selections[sel]
	if s == nil || len(s.Index()) < 2 {
		return "" // direct method on a mutex-typed expression; classOf handles it
	}
	recv := s.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	fld := st.Field(s.Index()[0])
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fld.Name()
}

// mutexClassOf classifies a call as a lock operation and names its class.
// kind: +1 Lock/RLock, -1 Unlock/RUnlock, +2 TryLock/TryRLock (conditional
// acquire), 0 not a lock op. read reports the R-flavored operations.
func mutexClassOf(p *Package, f *modFunc, call *ast.CallExpr) (kind int, read bool, class string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, false, ""
	}
	switch sel.Sel.Name {
	case "Lock":
		kind = 1
	case "RLock":
		kind, read = 1, true
	case "Unlock":
		kind = -1
	case "RUnlock":
		kind, read = -1, true
	case "TryLock":
		kind = 2
	case "TryRLock":
		kind, read = 2, true
	default:
		return 0, false, ""
	}
	s := p.Info.Selections[sel]
	if s == nil || !isMutexType(s.Recv()) {
		return 0, false, ""
	}
	if c := embeddedClass(p, sel); c != "" {
		return kind, read, c
	}
	return kind, read, classOf(p, f, sel.X)
}

// --- held-lock state -----------------------------------------------------

type heldLock struct {
	class string
	read  bool
}

// lockState is the abstract state at one program point: the stack of held
// lock classes, a borrow counter (unlocks of locks the caller holds, as in
// helpers like fabric.Outbox.Drain that are entered locked and return
// unlocked), and the releases deferred so far on this path. A deferred
// unlock keeps its lock held until the body exits, and only on the paths
// that passed the defer.
type lockState struct {
	held     []heldLock
	borrowed int
	deferred []string
}

func (st *lockState) clone() *lockState {
	return &lockState{
		held:     append([]heldLock(nil), st.held...),
		borrowed: st.borrowed,
		deferred: append([]string(nil), st.deferred...),
	}
}

func (st *lockState) holds(class string) bool {
	for _, h := range st.held {
		if h.class == class {
			return true
		}
	}
	return false
}

func (st *lockState) push(h heldLock) { st.held = append(st.held, h) }

// release pops the most recent lock of class (or the top when the class is
// unresolvable); an unmatched release borrows from the caller.
func (st *lockState) release(class string) {
	for i := len(st.held) - 1; i >= 0; i-- {
		if class == "" || st.held[i].class == class {
			st.held = append(st.held[:i], st.held[i+1:]...)
			return
		}
	}
	st.borrowed++
}

func (st *lockState) delta() int { return len(st.held) - st.borrowed }

// exit returns the state a caller sees when the body leaves from here: the
// deferred releases applied.
func (st *lockState) exit() *lockState {
	if len(st.deferred) == 0 {
		return st
	}
	out := st.clone()
	for _, class := range st.deferred {
		out.release(class)
	}
	out.deferred = nil
	return out
}

// merge folds one more incoming path into a join. acc is nil before the
// first path. The held set is the intersection (a lock is held after the
// join only if every live path holds it), in acc's order — diagnostics name
// the innermost — and borrowed is the max.
// A deferred release survives the join only if every path deferred it,
// like the lock it releases.
func merge(acc, st *lockState) *lockState {
	if acc == nil {
		return st.clone()
	}
	out := &lockState{borrowed: max(acc.borrowed, st.borrowed)}
	for _, h := range acc.held {
		if st.holds(h.class) {
			out.held = append(out.held, h)
		}
	}
	for _, class := range acc.deferred {
		if slices.Contains(st.deferred, class) {
			out.deferred = append(out.deferred, class)
		}
	}
	return out
}

// --- lock walk -----------------------------------------------------------

// walkEvents receives the walker's observations. Any callback may be nil.
type walkEvents struct {
	// onCall fires for calls resolved to module functions, with the state.
	onCall func(call *ast.CallExpr, callee *modFunc, st *lockState)
	// onNode fires for every non-lock-op node visited, with the state.
	onNode func(n ast.Node, st *lockState)
	// onSubUnit fires for function literals encountered in the body (go
	// statements, callbacks); deferred closures are walked inline instead,
	// since they run on this function's exit path with its locks held.
	onSubUnit func(fl *ast.FuncLit)
}

// bodyWalker evaluates one function body (or closure) over lockState.
type bodyWalker struct {
	m  *Module
	p  *Package
	f  *modFunc // enclosing declared function (for param and cycle facts)
	ev walkEvents
}

// walkBody evaluates the body's CFG and returns the exit state: every
// return path and the fall-off-the-end path, each with its own deferred
// releases applied, merged. Blocks run once each, in source order —
// summaries are first-witness-wins, so the order events fire in ends up in
// message text — and a block starts from the merge of its already
// evaluated predecessors, in link order. Loop back-edges therefore carry nothing: loop bodies are
// assumed lock-balanced (an unbalanced body is its own finding). Iterating
// to a fixpoint instead would not converge on a helper that is entered
// locked and loops around Unlock … Lock: every trip bumps borrowed, and
// merge takes the max.
func (w *bodyWalker) walkBody(body *ast.BlockStmt, entry *lockState) *lockState {
	g := w.m.cfgOf(body)
	out := make([]*lockState, len(g.blocks)) // nil: not reached (yet)
	var tryHeld map[*cfgBlock]heldLock       // then-blocks of `if mu.TryLock()`
	var exit *lockState
	for _, bl := range g.blocks {
		var st *lockState
		if bl == g.entry {
			st = entry.clone()
		}
		for _, pr := range bl.preds {
			if from := out[pr.index]; from != nil {
				st = merge(st, from)
			}
		}
		if st == nil {
			continue // unreachable
		}
		if h, ok := tryHeld[bl]; ok {
			st.push(h)
		}
		out[bl.index] = st

		nodes := bl.nodes
		var try *ast.CallExpr
		ifs, _ := bl.branch.(*ast.IfStmt)
		if ifs != nil {
			try = tryLockCond(ifs.Cond)
		}
		if try != nil {
			nodes = nodes[:len(nodes)-1] // the condition, evaluated below
		}
		for _, n := range nodes {
			w.node(n, st)
		}
		if try != nil {
			// The lock is held in the then-block (succs[0], whose only
			// predecessor is this block) and nowhere else.
			w.exprSkipping(ifs.Cond, st, try)
			_, read, class := mutexClassOf(w.p, w.f, try)
			if tryHeld == nil {
				tryHeld = make(map[*cfgBlock]heldLock)
			}
			tryHeld[bl.succs[0]] = heldLock{class: class, read: read}
		}
		if sel, ok := bl.branch.(*ast.SelectStmt); ok && w.ev.onNode != nil {
			w.ev.onNode(sel, st)
		}
		if bl.ret != nil || bl == g.end {
			exit = merge(exit, st.exit())
		}
	}
	if exit == nil {
		// No path returns: the body has no effect a caller could observe.
		return &lockState{}
	}
	return exit
}

// node evaluates one shallow CFG node, mutating st in place.
func (w *bodyWalker) node(n ast.Node, st *lockState) {
	switch n := n.(type) {
	case *ast.ExprStmt:
		w.expr(n.X, st)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			w.expr(e, st)
		}
		for _, e := range n.Lhs {
			w.expr(e, st)
		}
	case *ast.IncDecStmt:
		w.expr(n.X, st)
	case *ast.DeclStmt:
		w.exprIn(n, st)
	case *ast.SendStmt:
		w.expr(n.Chan, st)
		w.expr(n.Value, st)
		if w.ev.onNode != nil {
			w.ev.onNode(n, st)
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			w.expr(e, st)
		}
		if w.ev.onNode != nil {
			w.ev.onNode(n, st)
		}
	case *ast.DeferStmt:
		w.deferStmt(n, st)
	case *ast.GoStmt:
		w.goStmt(n, st)
	case *ast.RangeStmt:
		w.expr(n.X, st)
	case ast.Expr: // a condition, switch tag or case expression
		w.expr(n, st)
	}
}

// tryLockCond extracts a bare mu.TryLock()/TryRLock() call used as an if
// condition (negated conditions are not modeled: prefer false negatives).
func tryLockCond(cond ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(cond).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "TryLock" && sel.Sel.Name != "TryRLock") {
		return nil
	}
	return call
}

// deferStmt models defer: a deferred Unlock keeps the lock held until the
// body's exit; a deferred closure runs on the exit path with the current
// locks, so it is walked inline (its net releases become deferred).
func (w *bodyWalker) deferStmt(s *ast.DeferStmt, st *lockState) {
	if kind, _, class := mutexClassOf(w.p, w.f, s.Call); kind == -1 {
		st.deferred = append(st.deferred, class)
		return
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		entry := st.clone()
		entry.deferred = nil
		exit := w.walkBody(fl.Body, entry)
		for i := exit.delta(); i < 0; i++ {
			st.deferred = append(st.deferred, "")
		}
		return
	}
	// Other deferred calls (cleanups like defer l.Close()) run off the
	// linear path with no lock effect; visit for the node callbacks.
	w.exprIn(s.Call, st)
}

// goStmt registers spawned closures as sub-units; the spawned body runs
// later, off this lock path.
func (w *bodyWalker) goStmt(s *ast.GoStmt, st *lockState) {
	for _, arg := range s.Call.Args {
		w.expr(arg, st)
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		if w.ev.onSubUnit != nil {
			w.ev.onSubUnit(fl)
		}
	}
	if w.ev.onNode != nil {
		w.ev.onNode(s, st)
	}
}

// expr evaluates an expression tree for lock effects and node events.
func (w *bodyWalker) expr(e ast.Expr, st *lockState) {
	w.exprSkipping(e, st, nil)
}

// exprSkipping is expr with one call exempted from lock effects (the
// TryLock condition, which walkBody applies to the then-block only).
func (w *bodyWalker) exprSkipping(e ast.Expr, st *lockState, skip *ast.CallExpr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if w.ev.onSubUnit != nil {
				w.ev.onSubUnit(n)
			}
			return false
		case *ast.CallExpr:
			// Operands evaluate before the call takes effect.
			for _, a := range n.Args {
				w.exprSkipping(a, st, skip)
			}
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				w.exprSkipping(fun.X, st, skip)
			case *ast.FuncLit:
				if w.ev.onSubUnit != nil {
					w.ev.onSubUnit(fun)
				}
			}
			if n != skip {
				w.call(n, st)
			}
			return false
		}
		if w.ev.onNode != nil {
			w.ev.onNode(n, st)
		}
		return true
	})
}

// exprIn visits an arbitrary node's expressions.
func (w *bodyWalker) exprIn(n ast.Node, st *lockState) {
	ast.Inspect(n, func(x ast.Node) bool {
		if e, ok := x.(ast.Expr); ok {
			w.expr(e, st)
			return false
		}
		return true
	})
}

// call applies one call's lock effects.
func (w *bodyWalker) call(call *ast.CallExpr, st *lockState) {
	kind, read, class := mutexClassOf(w.p, w.f, call)
	switch kind {
	case 1, 2: // TryLock outside an if-condition: assume acquired
		st.push(heldLock{class: class, read: read})
		return
	case -1:
		st.release(class)
		return
	}
	callee := w.m.calleeOf(w.p, call)
	if callee == nil {
		if w.ev.onNode != nil {
			w.ev.onNode(call, st)
		}
		return
	}
	if w.ev.onCall != nil {
		w.ev.onCall(call, callee, st)
	}
	if callee.cycle != 0 && callee.cycle == w.f.cycle {
		return // recursion: lock-neutral, like a loop back-edge
	}
	// Apply the callee's net effect, substituting parameter-passed classes.
	if callee.delta < 0 {
		for i := 0; i < -callee.delta; i++ {
			st.release("")
		}
	}
	for _, leaf := range callee.leaves {
		st.push(heldLock{class: w.substitute(leaf, call)})
	}
}

// substitute resolves a callee summary class at a call site: $param:i
// becomes the class of the i-th argument.
func (w *bodyWalker) substitute(class string, call *ast.CallExpr) string {
	if !isParamClass(class) {
		return class
	}
	return classOf(w.p, w.f, paramArg(class, call))
}

// calleeOf resolves a call to a module function declaration (any package).
func (m *Module) calleeOf(p *Package, call *ast.CallExpr) *modFunc {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		return nil
	}
	return m.funcs[obj]
}

// walkAllUnits walks a function's body with the given entry state, then
// every function literal discovered (transitively) as its own unit with an
// empty entry: closures run later, without the creator's locks.
func (m *Module) walkAllUnits(mf *modFunc, entry *lockState, ev walkEvents) {
	var queue []*ast.FuncLit
	userSub := ev.onSubUnit
	ev.onSubUnit = func(fl *ast.FuncLit) {
		queue = append(queue, fl)
		if userSub != nil {
			userSub(fl)
		}
	}
	w := &bodyWalker{m: m, p: mf.pkg, f: mf, ev: ev}
	w.walkBody(mf.decl.Body, entry)
	for len(queue) > 0 {
		fl := queue[0]
		queue = queue[1:]
		sub := &bodyWalker{m: m, p: mf.pkg, f: mf, ev: ev}
		sub.walkBody(fl.Body, &lockState{})
	}
}

// --- summaries -----------------------------------------------------------

// markAddrTaken finds functions referenced as values (handlers, callbacks):
// their entry context cannot be inferred from call sites.
func (m *Module) markAddrTaken() {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				// Arguments are where functions escape into values.
				for _, a := range call.Args {
					var id *ast.Ident
					switch a := ast.Unparen(a).(type) {
					case *ast.Ident:
						id = a
					case *ast.SelectorExpr:
						id = a.Sel
					}
					if id == nil {
						continue
					}
					if mf := m.funcs[p.Info.Uses[id]]; mf != nil {
						mf.addrTaken = true
					}
				}
				return true
			})
		}
	}
}

// markCycles numbers the call cycles: the strongly connected components
// (Tarjan) of the calls the summary walk makes that hold more than one
// function or a direct self-call.
func (m *Module) markCycles() {
	calls := make(map[*modFunc][]*modFunc)
	for _, mf := range m.byName {
		onCall := func(_ *ast.CallExpr, callee *modFunc, _ *lockState) {
			calls[mf] = append(calls[mf], callee)
		}
		w := &bodyWalker{m: m, p: mf.pkg, f: mf, ev: walkEvents{onCall: onCall}}
		w.walkBody(mf.decl.Body, &lockState{})
	}
	index, low := make(map[*modFunc]int), make(map[*modFunc]int)
	var stack []*modFunc
	var connect func(f *modFunc)
	connect = func(f *modFunc) {
		index[f] = len(index) + 1
		low[f] = index[f]
		stack = append(stack, f)
		for _, g := range calls[f] {
			if index[g] == 0 {
				connect(g)
				low[f] = min(low[f], low[g])
			} else if slices.Contains(stack, g) {
				low[f] = min(low[f], index[g])
			}
		}
		if low[f] != index[f] {
			return
		}
		i := slices.Index(stack, f)
		if comp := stack[i:]; len(comp) > 1 || slices.Contains(calls[f], f) {
			for _, g := range comp {
				g.cycle = index[f]
			}
		}
		stack = stack[:i]
	}
	for _, mf := range m.byName {
		if index[mf] == 0 {
			connect(mf)
		}
	}
}

// fixpoint is the one driver behind the call-graph summaries. A round runs
// step on every declared function in byName order — a step sees what the
// steps before it in the same round produced — then settle, when given;
// rounds repeat until one changes nothing. Nothing caps the rounds: every
// fact is bounded by construction, so the iteration stops by itself.
//
//   - Upward (summarize). delta and leaves depend only on the function's own
//     lock operations and on callees outside its call cycle (a call into
//     the cycle is lock-neutral, as a loop back-edge is), so they are fixed
//     once the rounds have climbed the acyclic call graph. ops only grow,
//     and blockDesc and retMake are set at most once. Every set is
//     drawn from the module's finite lock and channel classes.
//   - Downward (entryFixpoint). Entry contexts start empty and only grow: a
//     caller walked with more locks held holds more at each call site, and
//     the intersection over sites is monotone. They are bounded by the lock
//     classes.
func (m *Module) fixpoint(step func(*modFunc) bool, settle func() bool) {
	for changed := true; changed; {
		changed = false
		for _, mf := range m.byName {
			changed = step(mf) || changed
		}
		if settle != nil {
			changed = settle() || changed
		}
	}
}

// viaCall extends a callee fact's call chain with the callee itself.
func viaCall(callee *modFunc, via string) string {
	if via == "" {
		return callee.obj.Name()
	}
	return callee.obj.Name() + " → " + via
}

// summarize is the upward step: one walk of mf's body over its callees'
// current summaries recomputes mf's lock facts and extends its channel
// facts. It reports whether any fact changed; a via is the first witness in
// walk order and is not itself a fact (through a call cycle it would grow
// every round).
func (m *Module) summarize(mf *modFunc) bool {
	p := mf.pkg
	comm := selectCommRanges(mf.decl.Body)
	res := mf.decl.Type.Results
	constructor := res != nil && len(res.List) == 1 && len(res.List[0].Names) <= 1
	opsBefore, blockBefore, retBefore := len(mf.ops), mf.blockDesc, mf.retMake
	addOp := func(kind chanOpKind, class, via string) {
		if class == "" {
			return
		}
		if _, ok := mf.ops[chanFactKey(kind, class)]; !ok {
			mf.ops[chanFactKey(kind, class)] = chanFact{kind: kind, class: class, via: via}
		}
	}
	// Blocking reached only after the body has released a lock its caller
	// holds (fabric.Outbox.Drain performing a queued send) runs with that lock
	// released, so it is not the caller's.
	setBlock := func(desc string, st *lockState) {
		if mf.blockDesc == "" && st.borrowed == 0 {
			mf.blockDesc = desc
		}
	}
	w := &bodyWalker{m: m, p: p, f: mf}
	w.ev.onCall = func(call *ast.CallExpr, callee *modFunc, st *lockState) {
		for _, f := range callee.ops {
			addOp(f.kind, substituteChanClass(p, mf, f.class, call), viaCall(callee, f.via))
		}
		if desc, _ := blockingCallDesc(p, call); desc != "" {
			setBlock(desc, st)
		} else {
			setBlock(callee.blockDesc, st)
		}
	}
	w.ev.onNode = func(n ast.Node, st *lockState) {
		switch n := n.(type) {
		case *ast.SendStmt:
			addOp(chSend, chanClassOf(p, mf, n.Chan), "")
			if !comm.contains(n.Pos()) {
				setBlock("a channel send", st)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				addOp(chRecv, chanClassOf(p, mf, n.X), "")
				if !comm.contains(n.Pos()) {
					setBlock("a channel receive", st)
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				setBlock("a select with no default", st)
			}
		case *ast.CallExpr:
			if cls, isClose := closeArgClass(p, mf, n); isClose {
				addOp(chClose, cls, "")
			} else if desc, _ := blockingCallDesc(p, n); desc != "" {
				setBlock(desc, st)
			}
		case *ast.ReturnStmt:
			if constructor && mf.retMake == 0 && len(n.Results) == 1 {
				mf.retMake = m.exprMakeKind(mf, n.Results[0])
			}
		}
	}
	exit := w.walkBody(mf.decl.Body, &lockState{})
	var leaves []string
	for _, h := range exit.held {
		if h.class != "" {
			leaves = append(leaves, h.class)
		}
	}
	changed := exit.delta() != mf.delta || !slices.Equal(leaves, mf.leaves) ||
		len(mf.ops) != opsBefore || mf.blockDesc != blockBefore || mf.retMake != retBefore
	mf.delta, mf.leaves = exit.delta(), leaves
	return changed
}

// entryFixpoint is the downward pass: each round walks every function from
// its current entry context and records the locks held at each static call
// site; settling narrows each callee's entry to the intersection over its
// sites. Exported functions, address-taken functions and closures keep the
// empty context (callable from anywhere).
func (m *Module) entryFixpoint() {
	sites := make(map[*modFunc][]map[string]bool)
	onCall := func(call *ast.CallExpr, callee *modFunc, st *lockState) {
		ctx := make(map[string]bool)
		for _, h := range st.held {
			if h.class != "" && !isParamClass(h.class) {
				ctx[h.class] = true
			}
		}
		sites[callee] = append(sites[callee], ctx)
	}
	walk := func(mf *modFunc) bool {
		m.walkAllUnits(mf, m.entryState(mf), walkEvents{onCall: onCall})
		return false
	}
	m.fixpoint(walk, func() bool {
		changed := false
		for _, mf := range m.byName {
			next := map[string]bool{}
			if !mf.addrTaken && !ast.IsExported(mf.obj.Name()) {
				for i, ctx := range sites[mf] {
					if i == 0 {
						next = ctx
						continue
					}
					for c := range next {
						if !ctx[c] {
							delete(next, c)
						}
					}
				}
			}
			changed = changed || !sameKeys(mf.entry, next)
			mf.entry = next
		}
		clear(sites)
		return changed
	})
}

// entryState builds the walker's entry lockState from the (converged or
// in-progress) entry context.
func (m *Module) entryState(mf *modFunc) *lockState {
	st := &lockState{}
	var classes []string
	for c := range mf.entry {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		st.push(heldLock{class: c})
	}
	return st
}

// sameKeys reports whether two maps have the same key set.
func sameKeys[V any](a, b map[string]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}
