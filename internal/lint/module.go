package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the shared infrastructure for the interprocedural analyzers.
// The Module view indexes every function declaration across all loaded
// packages, names locks by their *class* (the struct field or package
// variable, not the instance), and evaluates a held-lock state over each
// body's CFG (cfg.go), so early returns, breaks, defer-unlocks and TryLock
// branches do not poison the fallthrough path. Control flow is cfg.go's
// business; what this file knows is what one shallow node does to the
// state.
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
// the same type, and two instances of one class acquired nested look like a
// self-cycle. The first is a deliberate false-negative bias; the second is
// reported, because nested same-class acquisition is a real self-deadlock
// with Go's non-reentrant sync.Mutex unless instances are globally ordered.

// Module is the whole-module view handed to ModuleAnalyzers.
type Module struct {
	Pkgs []*Package

	funcs  map[types.Object]*modFunc
	byName []*modFunc // deterministic iteration order

	// releasedFields records struct fields on which some function in the
	// module calls Close/Stop/Shutdown: "pkgpath.Type.field" -> witness.
	// life-leak uses it as the per-type must-release summary.
	releasedFields map[string]token.Position

	// cfgs memoizes one CFG per function or closure body (cfgOf).
	cfgs map[*ast.BlockStmt]*cfg

	// conc is the lazily built concurrency call graph (channel summaries,
	// blocking descriptions, spawn sites) shared by the stage-4 analyzers.
	// Analyzers run sequentially, so no locking around the build.
	conc *concGraph
}

// modFunc is one declared function with its interprocedural summaries.
type modFunc struct {
	obj  types.Object
	decl *ast.FuncDecl
	pkg  *Package

	// Fixpoint summaries (closure bodies excluded: they run later, off the
	// caller's lock path; each closure is its own unit in reporting passes).
	delta    int               // net lock delta (negative: releases caller's locks)
	leaves   []string          // classes left held on return when delta > 0
	acquires map[string]string // lock class -> via-description (transitive)
	// pairs are witnessed ordered acquisitions (to taken while from held),
	// with $param:i ends substituted at call sites during propagation — the
	// mechanism that concretizes lock order through helpers taking mutexes
	// by pointer (lockBoth(&a.mu, &b.mu) reversed elsewhere is a cycle).
	pairs map[string]pairFact

	// Entry context: lock classes held at every static call site
	// (intersection). entryTop marks "no call site seen yet".
	entry    map[string]bool
	entryTop bool

	// addrTaken: the function is used as a value (callback, handler), so it
	// can run from anywhere; its entry context is forced empty.
	addrTaken bool
}

// NewModule indexes the packages and computes every summary the module
// analyzers share.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:           pkgs,
		funcs:          make(map[types.Object]*modFunc),
		releasedFields: make(map[string]token.Position),
		cfgs:           make(map[*ast.BlockStmt]*cfg),
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
				mf := &modFunc{obj: obj, decl: fd, pkg: p, acquires: make(map[string]string), entryTop: true}
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
	m.summarize()
	m.entryFixpoint()
	m.indexReleases()
	return m
}

// inModuleScope limits module-analyzer reporting to the packages whose
// concurrency discipline the repo owns: everything under internal/ plus the
// command mains. Unlike block-lock's mutex half, internal/transport is in
// scope — its
// mutex nesting and goroutine lifecycles are exactly what lock-order and
// life-leak exist to prove.
func inModuleScope(path string) bool {
	return strings.HasPrefix(path, modulePrefix+"/internal/") ||
		strings.HasPrefix(path, modulePrefix+"/cmd/")
}

// ModuleAnalyzer is a rule family that needs the whole-module view.
type ModuleAnalyzer struct {
	Name string
	Doc  string
	Run  func(m *Module) []Diagnostic
}

// ModuleAnalyzers returns the interprocedural suite, in reporting order.
func ModuleAnalyzers() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{
		LockOrder(),
		LifeLeak(),
		GuardInfer(),
		HotAlloc(),
		WireCompat(),
		AtomicMix(),
		BlockLock(),
		ChanProto(),
		ShutdownProp(),
	}
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
	pos   token.Position
}

// lockState is the abstract state at one program point: the stack of held
// lock classes plus a borrow counter (unlocks of locks the caller holds, as
// in runCallbacks-style helpers that are entered locked and return
// unlocked).
type lockState struct {
	held     []heldLock
	borrowed int
}

func (st *lockState) clone() *lockState {
	return &lockState{held: append([]heldLock(nil), st.held...), borrowed: st.borrowed}
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

// merge folds one more incoming path into a join. acc is nil before the
// first path. The held set is the intersection (a lock is held after the
// join only if every live path holds it), in acc's order and with acc's
// positions — diagnostics name the innermost — and borrowed is the max.
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
	return out
}

// --- lock walk -----------------------------------------------------------

// walkEvents receives the walker's observations. Any callback may be nil.
type walkEvents struct {
	// onLock fires before class is pushed, with the state at that point.
	onLock func(call *ast.CallExpr, class string, read bool, st *lockState)
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
	f  *modFunc // enclosing declared function (for param classes); may be nil
	ev walkEvents

	// deferred releases seen so far, applied to the exit state (a deferred
	// unlock keeps its lock held until the end of the body, which is what
	// the mid-body state should say).
	deferredReleases []string
}

// walkBody evaluates the body's CFG and returns the exit state: every
// return path merged with the fall-off-the-end path, deferred releases
// applied. Blocks run once each, in source order — summaries are
// first-witness-wins, so the order events fire in ends up in message text —
// and a block starts from the merge of its already evaluated predecessors,
// in link order. Loop back-edges therefore carry nothing: loop bodies are
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
			if w.ev.onLock != nil {
				w.ev.onLock(try, class, read, st)
			}
			if tryHeld == nil {
				tryHeld = make(map[*cfgBlock]heldLock)
			}
			tryHeld[bl.succs[0]] = heldLock{class: class, read: read, pos: w.p.position(try)}
		}
		if sel, ok := bl.branch.(*ast.SelectStmt); ok && w.ev.onNode != nil {
			w.ev.onNode(sel, st)
		}
		if bl.ret != nil || bl == g.end {
			exit = merge(exit, st)
		}
	}
	if exit == nil {
		// No path returns: the body has no effect a caller could observe.
		return &lockState{}
	}
	for _, class := range w.deferredReleases {
		exit.release(class)
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
		w.deferredReleases = append(w.deferredReleases, class)
		return
	}
	if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
		sub := &bodyWalker{m: w.m, p: w.p, f: w.f, ev: w.ev}
		exit := sub.walkBody(fl.Body, st.clone())
		for i := exit.delta(); i < 0; i++ {
			w.deferredReleases = append(w.deferredReleases, "")
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
		if w.ev.onLock != nil {
			w.ev.onLock(call, class, read, st)
		}
		st.push(heldLock{class: class, read: read, pos: w.p.position(call)})
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
	// Apply the callee's net effect, substituting parameter-passed classes.
	if callee.delta < 0 {
		for i := 0; i < -callee.delta; i++ {
			st.release("")
		}
	}
	for _, leaf := range callee.leaves {
		st.push(heldLock{class: w.substitute(leaf, call), pos: w.p.position(call)})
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

// pairFact is one witnessed ordered acquisition for the lock graph.
type pairFact struct {
	from, to string
	pos      token.Position
	via      string
}

func pairKey(from, to string) string { return from + "|" + to }

// summarize runs the delta/leaves/acquires/pairs fixpoint. All facts grow
// monotonically from the direct facts, so iteration converges.
func (m *Module) summarize() {
	for round := 0; round < 12; round++ {
		changed := false
		for _, mf := range m.byName {
			w := &bodyWalker{m: m, p: mf.pkg, f: mf}
			acquired := make(map[string]string)
			pairs := make(map[string]pairFact)
			addPair := func(pf pairFact) {
				if pf.from == "" || pf.to == "" {
					return
				}
				if _, ok := pairs[pairKey(pf.from, pf.to)]; !ok {
					pairs[pairKey(pf.from, pf.to)] = pf
				}
			}
			w.ev.onLock = func(call *ast.CallExpr, class string, read bool, st *lockState) {
				if class == "" {
					return
				}
				// Both ends of a pair are genuinely held together here, so a
				// pair is a fact regardless of borrow state.
				for _, h := range st.held {
					addPair(pairFact{from: h.class, to: class, pos: mf.pkg.position(call)})
				}
				// Only acquisitions made while the caller's locks could still
				// be held (no borrowed release yet) propagate to callers: a
				// helper that is entered locked, releases, and re-acquires
				// (runCallbacks) must not read as acquiring under the caller.
				if st.borrowed > 0 {
					return
				}
				if _, ok := acquired[class]; !ok {
					acquired[class] = "" // direct acquisition
				}
			}
			w.ev.onCall = func(call *ast.CallExpr, callee *modFunc, st *lockState) {
				// A callee's witnessed pairs concretize at this call site:
				// $param:i ends become the argument's class.
				for _, pf := range callee.pairs {
					from, to := w.substitute(pf.from, call), w.substitute(pf.to, call)
					via := callee.obj.Name()
					if pf.via != "" {
						via += " → " + pf.via
					}
					addPair(pairFact{from: from, to: to, pos: mf.pkg.position(call), via: via})
				}
				// Anything the callee acquires while we hold a lock is a pair.
				for c, sub := range callee.acquires {
					rc := w.substitute(c, call)
					if rc == "" {
						continue
					}
					via := callee.obj.Name()
					if sub != "" {
						via = via + " → " + sub
					}
					for _, h := range st.held {
						addPair(pairFact{from: h.class, to: rc, pos: mf.pkg.position(call), via: via})
					}
				}
				if st.borrowed > 0 {
					return
				}
				for c, sub := range callee.acquires {
					rc := w.substitute(c, call)
					if rc == "" {
						continue
					}
					if _, ok := acquired[rc]; !ok {
						via := callee.obj.Name()
						if sub != "" {
							via = via + " → " + sub
						}
						acquired[rc] = via
					}
				}
			}
			exit := w.walkBody(mf.decl.Body, &lockState{})
			d := exit.delta()
			var leaves []string
			for _, h := range exit.held {
				if h.class != "" {
					leaves = append(leaves, h.class)
				}
			}
			if d != mf.delta || len(leaves) != len(mf.leaves) ||
				len(acquired) != len(mf.acquires) || len(pairs) != len(mf.pairs) {
				changed = true
			}
			mf.delta, mf.leaves = d, leaves
			mf.acquires, mf.pairs = acquired, pairs
		}
		if !changed {
			break
		}
	}
}

// entryFixpoint computes the intersection of held locks over every static
// call site of each function. Exported functions, address-taken functions
// and closures get the empty context (callable from anywhere); unexported
// functions converge downward from "unconstrained" to the intersection.
func (m *Module) entryFixpoint() {
	for round := 0; round < 8; round++ {
		changed := false
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
		for _, mf := range m.byName {
			m.walkAllUnits(mf, m.entryState(mf), walkEvents{onCall: onCall})
		}
		for _, mf := range m.byName {
			next := map[string]bool{}
			if !mf.addrTaken && !ast.IsExported(mf.obj.Name()) {
				top := true
				for _, ctx := range sites[mf] {
					if top {
						next, top = ctx, false
						continue
					}
					for c := range next {
						if !ctx[c] {
							delete(next, c)
						}
					}
				}
			}
			if !equalSet(mf.entry, next) || mf.entryTop {
				changed = true
			}
			mf.entry, mf.entryTop = next, false
		}
		if !changed {
			break
		}
	}
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
		st.push(heldLock{class: c, pos: mf.pkg.position(mf.decl)})
	}
	return st
}

func equalSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// indexReleases scans every function for Close/Stop/Shutdown calls on
// struct-field selectors, building the per-type must-release summary
// life-leak checks stores against.
func (m *Module) indexReleases() {
	for _, mf := range m.byName {
		p := mf.pkg
		ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Close", "Stop", "Shutdown":
			default:
				return true
			}
			if fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
				if class := fieldClass(p, fieldSel); class != "" {
					if _, seen := m.releasedFields[class]; !seen {
						m.releasedFields[class] = p.position(call)
					}
				}
			}
			return true
		})
	}
}
