package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BlockLock flags blocking operations — fabric/transport sends, channel
// sends and receives, time.Sleep, WaitGroup/Cond waits, default-less
// selects, net/os I/O — reachable while a sync.Mutex or RWMutex is held,
// through any static call chain in the module. Over the TCP transport a
// Send is a socket write that blocks under backpressure; holding a state
// mutex across it turns backpressure into a distributed deadlock (A sends
// to B under A.mu, B's reply handler needs B.mu to send back, both block).
// The repo-wide convention is prepare-under-lock / send-outside (see
// fabric.Outbox.Drain).
//
// This replaced the retired lock-send linear walk: the branch-aware
// bodyWalker supplies the held-lock state (so an early unlock in one branch
// no longer masks the lock held on the fallthrough path), and each callee's
// summary supplies its blocking description (so a send two packages away
// through helpers is still seen).
// Function literals stay separate units — their bodies run later, off the
// locked path — and operations in select communication clauses are the
// select's own business, not independent blocking sites.
//
// A second surface rides the same summaries: functions on a //cscw:hotpath
// closure must not perform hard-blocking operations at all (unbuffered or
// unknown channel ops, default-less selects, sleeps, waits, socket I/O) —
// the hot path's latency budget is the batch window, not a kernel queue.
func BlockLock() *Analyzer {
	return &Analyzer{
		Name: "block-lock",
		Doc:  "no blocking op (Send, channel op, sleep, wait, socket I/O) while a mutex is held or on a hot path",
		Run:  runBlockLock,
	}
}

func runBlockLock(m *Module) []Diagnostic {
	hot := hotFuncs(m)
	var out []Diagnostic
	for _, mf := range m.byName {
		if inLockScope(mf.pkg.Path) {
			out = append(out, blockLockFunc(m, mf)...)
		}
		if why, isHot := hot[mf]; isHot && inModuleScope(mf.pkg.Path) {
			out = append(out, blockHotFunc(m, mf, why)...)
		}
	}
	return out
}

// blockLockFunc reports blocking operations under locks acquired within mf
// itself (empty entry state: helpers entered locked are the caller's
// report, at the call site, via the callee's blocking summary).
func blockLockFunc(m *Module, mf *modFunc) []Diagnostic {
	p := mf.pkg
	comm := selectCommRanges(mf.decl.Body)
	var out []Diagnostic
	report := func(n ast.Node, what string, st *lockState) {
		out = append(out, Diagnostic{
			Pos:  p.position(n),
			Rule: "block-lock",
			Message: what + " while " + heldName(st) +
				" is held; release the lock first (prepare under lock, send outside)",
		})
	}
	ev := walkEvents{
		onNode: func(n ast.Node, st *lockState) {
			if len(st.held) == 0 {
				return
			}
			switch n := n.(type) {
			case *ast.SendStmt:
				if !comm.contains(n.Pos()) {
					report(n, "channel send", st)
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !comm.contains(n.Pos()) {
					report(n, "channel receive", st)
				}
			case *ast.SelectStmt:
				if !selectHasDefault(n) {
					report(n, "select with no default", st)
				}
			case *ast.CallExpr:
				if desc, _ := blockingCallDesc(p, n); desc != "" {
					report(n, desc, st)
				}
			}
		},
		onCall: func(call *ast.CallExpr, callee *modFunc, st *lockState) {
			if len(st.held) == 0 {
				return
			}
			// A resolved call can still be directly blocking by name (a
			// declared Send method); classify it before consulting the
			// callee's summary so the message names the operation.
			if desc, _ := blockingCallDesc(p, call); desc != "" {
				report(call, desc, st)
				return
			}
			if callee.blockDesc != "" {
				report(call, "call to "+callee.obj.Name()+" (which performs "+callee.blockDesc+")", st)
			}
		},
	}
	m.walkAllUnits(mf, &lockState{}, ev)
	return out
}

// heldName renders the innermost nameable held lock for the message.
func heldName(st *lockState) string {
	for i := len(st.held) - 1; i >= 0; i-- {
		if c := st.held[i].class; c != "" && !isParamClass(c) {
			return classShort(c)
		}
	}
	for i := len(st.held) - 1; i >= 0; i-- {
		if isParamClass(st.held[i].class) {
			return "a caller-supplied mutex"
		}
	}
	return "a mutex"
}

// blockHotFunc reports hard-blocking operations anywhere in a hot-path
// function's straight-line body. Sends on provably buffered channels pass
// (they only block when full — the batch path relies on them), as do
// method calls merely named Send: the hot path's job is handing frames to
// the transport, which prices that call itself.
func blockHotFunc(m *Module, mf *modFunc, why string) []Diagnostic {
	p := mf.pkg
	comm := selectCommRanges(mf.decl.Body)
	var out []Diagnostic
	report := func(n ast.Node, what string) {
		out = append(out, Diagnostic{
			Pos:  p.position(n),
			Rule: "block-lock",
			Message: what + " in hot-path function " + mf.obj.Name() +
				" (" + why + "); the hot path must not block",
		})
	}
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate unit, off the hot path
		case *ast.SendStmt:
			if !comm.contains(n.Pos()) && !provablyBuffered(m, chanClassOf(p, mf, n.Chan)) {
				report(n, "channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !comm.contains(n.Pos()) &&
				!provablyBuffered(m, chanClassOf(p, mf, n.X)) {
				report(n, "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				report(n, "select with no default")
			}
		case *ast.CallExpr:
			if desc, hard := blockingCallDesc(p, n); hard {
				report(n, desc)
			}
		}
		return true
	})
	return out
}

// provablyBuffered reports whether every known make site for class is
// buffered; unknown channels count as unbuffered (they might be).
func provablyBuffered(m *Module, class string) bool {
	if class == "" {
		return false
	}
	ci := m.chans[class]
	return ci != nil && ci.buffered && !ci.unbuffered
}

// blockingCallDesc classifies a call expression as directly blocking: any
// method named Send (fabric endpoints, netsim nodes, transports — sends
// block under TCP backpressure), time.Sleep, WaitGroup/Cond waits, and
// socket/file I/O (net dials/listens/reads/writes, os.File reads/writes).
// hard marks operations with unbounded kernel-side latency, the ones the
// hot-path half of block-lock refuses outright.
func blockingCallDesc(p *Package, call *ast.CallExpr) (desc string, hard bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if name, ok := pkgFuncCall(p, call, "time"); ok {
		if name == "Sleep" {
			return "time.Sleep", true
		}
		return "", false
	}
	if name, ok := pkgFuncCall(p, call, "net"); ok {
		if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") {
			return "net." + name + " (blocking I/O)", true
		}
		return "", false
	}
	switch sel.Sel.Name {
	case "Send":
		// Only method calls count; a package-level Send would have been
		// caught above as a package function (none exist in-module).
		if _, isPkg := p.Info.Uses[identOf(sel.X)].(*types.PkgName); isPkg {
			return "", false
		}
		return "a Send", false
	case "Wait":
		if s := p.Info.Selections[sel]; s != nil && isSyncWaiter(s.Recv()) {
			return "a " + typeShort(s.Recv()) + ".Wait", true
		}
	case "Read", "Write", "Accept", "ReadFrom", "WriteTo":
		if s := p.Info.Selections[sel]; s != nil && isNetOrFileType(s.Recv()) {
			return typeShort(s.Recv()) + "." + sel.Sel.Name + " (blocking I/O)", true
		}
	}
	return "", false
}

// isNetOrFileType reports whether t is a net connection/listener type or
// *os.File — receivers whose Read/Write/Accept block on the kernel.
func isNetOrFileType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "net":
		return true
	case "os":
		return named.Obj().Name() == "File"
	}
	return false
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func isSyncWaiter(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "WaitGroup" || named.Obj().Name() == "Cond"
}

func typeShort(t types.Type) string {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// hotpathDirective marks a per-message function: a test pins its allocations
// and block-lock keeps its static call closure off hard-blocking operations.
const hotpathDirective = "//cscw:hotpath"

// isHotpathAnnotated reports whether the declaration's doc comment carries
// the //cscw:hotpath directive.
func isHotpathAnnotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// hotFuncs computes the annotated roots and their static call closure.
// The returned map gives each hot function its provenance for diagnostics.
func hotFuncs(m *Module) map[*modFunc]string {
	hot := make(map[*modFunc]string)
	var queue []*modFunc
	for _, mf := range m.byName {
		if isHotpathAnnotated(mf.decl) {
			hot[mf] = hotpathDirective
			queue = append(queue, mf)
		}
	}
	for len(queue) > 0 {
		mf := queue[0]
		queue = queue[1:]
		root := mf.obj.Name()
		if via := hot[mf]; via != hotpathDirective {
			// Propagate the original annotated root, not the whole chain.
			root = via[strings.LastIndex(via, " ")+1:]
		}
		ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // a closure runs as its own unit
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := m.calleeOf(mf.pkg, call)
			if callee == nil || hot[callee] != "" || callee.decl.Body == nil {
				return true
			}
			hot[callee] = "reached from " + hotpathDirective + " function " + root
			queue = append(queue, callee)
			return true
		})
	}
	return hot
}
