package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LifeLeak is the resource/goroutine lifecycle analyzer. Two obligations:
//
//  1. Every `go` statement must come with join evidence — a WaitGroup.Add
//     in the launching function before the statement, or a spawned body
//     that (transitively) calls WaitGroup.Done or closes a channel stored
//     in a struct field (the done-channel join idiom). A goroutine with
//     neither outlives its owner's Close and leaks.
//
//  2. Every tracked resource — net.Listener/net.Conn from net.Listen*/
//     net.Dial*, *time.Ticker/*time.Timer from time.NewTicker/NewTimer,
//     and endpoint-like values (Close + SetHandler in the method set) from
//     module constructors — must be discharged in its creating function:
//     Close/Stop/Shutdown called on it (including deferred and inside
//     closures), returned, passed to a callee, or stored somewhere the
//     module demonstrably releases (a struct field some function calls
//     Close/Stop on — the per-type must-release summary; a map/slice/chan
//     handoff counts as an ownership transfer).
//
// The discharge check is existence-based, not all-paths: a resource closed
// on one path but leaked on an early return is missed (false-negative
// bias, like block-lock). time.AfterFunc is exempt — a one-shot timer that
// discharges itself by firing.
func LifeLeak() *Analyzer {
	return &Analyzer{
		Name: "life-leak",
		Doc:  "every goroutine and tracked resource (listener, conn, ticker, timer, endpoint) must reach a join/Close/Stop",
		Run:  runLifeLeak,
	}
}

func runLifeLeak(m *Module) []Diagnostic {
	var out []Diagnostic
	done := newDoneSignals(m)
	for _, mf := range m.byName {
		if !inModuleScope(mf.pkg.Path) {
			continue
		}
		out = append(out, checkGoStmts(m, mf, done)...)
		out = append(out, checkResources(m, mf)...)
	}
	return out
}

// --- goroutine join evidence ---------------------------------------------

// doneSignals memoizes, per declared function, whether its body signals
// completion: calls Done on a sync.WaitGroup or closes a struct-field
// channel (either possibly deferred), directly or via a callee.
type doneSignals struct {
	m    *Module
	memo map[*modFunc]bool
}

func newDoneSignals(m *Module) *doneSignals {
	return &doneSignals{m: m, memo: make(map[*modFunc]bool)}
}

func (d *doneSignals) fn(mf *modFunc) bool {
	if v, ok := d.memo[mf]; ok {
		return v
	}
	d.memo[mf] = false // cut recursion; a cycle contributes no evidence
	v := d.body(mf.pkg, mf.decl.Body, 2)
	d.memo[mf] = v
	return v
}

// body reports whether the block contains a completion signal, following
// direct calls up to depth more levels.
func (d *doneSignals) body(p *Package, body ast.Node, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isWaitGroupDone(p, call) || closesFieldChan(p, call) {
			found = true
			return false
		}
		if depth > 0 {
			if callee := d.m.calleeOf(p, call); callee != nil {
				if v, seen := d.memo[callee]; seen {
					found = found || v
				} else if d.body(callee.pkg, callee.decl.Body, depth-1) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isWaitGroupDone(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	s := p.Info.Selections[sel]
	return s != nil && isSyncWaiter(s.Recv())
}

// closesFieldChan matches close(x.f): the done-channel idiom, where the
// owner joins with <-x.f.
func closesFieldChan(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return false
	}
	_, isSel := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	return isSel
}

// checkGoStmts flags go statements with no join evidence.
func checkGoStmts(m *Module, mf *modFunc, done *doneSignals) []Diagnostic {
	var out []Diagnostic
	p := mf.pkg
	// WaitGroup.Add positions in this function, for the "Add before go" test.
	var addPos []int
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, sok := call.Fun.(*ast.SelectorExpr); sok && sel.Sel.Name == "Add" {
				if s := p.Info.Selections[sel]; s != nil && isSyncWaiter(s.Recv()) {
					addPos = append(addPos, int(call.Pos()))
				}
			}
		}
		return true
	})
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		for _, ap := range addPos {
			if ap < int(g.Pos()) {
				return true // joined via the WaitGroup added to before launch
			}
		}
		switch fun := g.Call.Fun.(type) {
		case *ast.FuncLit:
			if done.body(p, fun.Body, 2) {
				return true
			}
		default:
			if callee := m.calleeOf(p, g.Call); callee != nil && done.fn(callee) {
				return true
			}
		}
		out = append(out, Diagnostic{
			Pos:  p.position(g),
			Rule: "life-leak",
			Message: "goroutine launched with no join evidence: no prior WaitGroup.Add here, and the spawned " +
				"body neither calls a WaitGroup's Done nor closes an owned done-channel; its owner's " +
				"Close/Stop cannot wait for it",
		})
		return true
	})
	return out
}

// --- tracked resources ---------------------------------------------------

// trackedCreation classifies a call that yields a resource with a release
// obligation; it returns the resource kind ("" if untracked) and the index
// of the resource in the call's result tuple.
func trackedCreation(m *Module, p *Package, call *ast.CallExpr) (kind string, resultIdx int) {
	if name, ok := pkgFuncCall(p, call, "net"); ok {
		if strings.HasPrefix(name, "Listen") {
			return "listener", 0
		}
		if strings.HasPrefix(name, "Dial") {
			return "connection", 0
		}
		return "", 0
	}
	if name, ok := pkgFuncCall(p, call, "time"); ok {
		switch name {
		case "NewTicker":
			return "ticker", 0
		case "NewTimer":
			return "timer", 0
		}
		return "", 0 // AfterFunc and friends discharge themselves
	}
	// Endpoint-like module constructors: the result owns goroutines or
	// sockets behind Close. Restricted to the substrate packages; simulated
	// worlds (netsim nodes) are stepped, not leaked. Only constructor-shaped
	// names create an obligation — a lookup returns something its registry
	// still owns, and a From* wrapper leaves ownership with the wrapped value.
	callee := m.calleeOf(p, call)
	if callee == nil {
		return "", 0
	}
	path := callee.pkg.Path
	if !strings.HasSuffix(path, "/transport") && !strings.HasSuffix(path, "/fabric") &&
		!strings.Contains(path, "/fixture/") {
		return "", 0
	}
	cname := callee.obj.Name()
	if !strings.HasPrefix(cname, "New") && !strings.HasPrefix(cname, "Listen") &&
		!strings.HasPrefix(cname, "Dial") {
		return "", 0
	}
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return "", 0
	}
	typ := tv.Type
	if tuple, istuple := typ.(*types.Tuple); istuple {
		for i := 0; i < tuple.Len(); i++ {
			if isEndpointLike(tuple.At(i).Type()) {
				return "endpoint", i
			}
		}
		return "", 0
	}
	if isEndpointLike(typ) {
		return "endpoint", 0
	}
	return "", 0
}

// isEndpointLike reports whether the method set has both Close and
// SetHandler — the shape of transport/fabric endpoints.
func isEndpointLike(t types.Type) bool {
	ms := types.NewMethodSet(t)
	if ptr, ok := t.(*types.Pointer); !ok {
		_ = ptr
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	var hasClose, hasSetHandler bool
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Close":
			hasClose = true
		case "SetHandler":
			hasSetHandler = true
		}
	}
	return hasClose && hasSetHandler
}

// checkResources flags tracked creations with no discharge evidence.
func checkResources(m *Module, mf *modFunc) []Diagnostic {
	var out []Diagnostic
	p := mf.pkg
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, idx := trackedCreation(m, p, call)
		if kind == "" {
			return true
		}
		obj, discarded := creationTarget(p, mf.decl.Body, call, idx)
		if discarded {
			out = append(out, Diagnostic{
				Pos:  p.position(call),
				Rule: "life-leak",
				Message: "the " + kind + " created here is discarded; nothing can ever Close/Stop it " +
					"(bind it and release it, or hand it to an owner that does)",
			})
			return true
		}
		if obj == nil {
			return true // bound through an expression we cannot track
		}
		if reason := discharge(m, mf, obj, call); reason != "" {
			out = append(out, Diagnostic{
				Pos:  p.position(call),
				Rule: "life-leak",
				Message: "the " + kind + " created here never reaches a Close/Stop: " + reason +
					" (release it on every path out of its owner, or transfer it to a type whose Close does)",
			})
		}
		return true
	})
	return out
}

// creationTarget finds the variable the resource result is bound to.
// discarded is true for `_ =` bindings and bare expression statements.
func creationTarget(p *Package, body ast.Node, call *ast.CallExpr, idx int) (obj types.Object, discarded bool) {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.ExprStmt:
			if ast.Unparen(n.X) == call {
				found, discarded = true, true
				return false
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || ast.Unparen(n.Rhs[0]) != call {
				return true
			}
			found = true
			if idx >= len(n.Lhs) {
				return false
			}
			if id, ok := n.Lhs[idx].(*ast.Ident); ok {
				if id.Name == "_" {
					discarded = true
					return false
				}
				obj = p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
			}
			return false
		}
		return true
	})
	return obj, discarded
}

// discharge scans the creating function for evidence the resource bound to
// obj is released or handed off; it returns "" when discharged, or a
// description of the missing evidence.
func discharge(m *Module, mf *modFunc, obj types.Object, creation *ast.CallExpr) string {
	p := mf.pkg
	ok := false
	badStore := ""
	isObj := func(e ast.Expr) bool {
		id, iok := ast.Unparen(e).(*ast.Ident)
		return iok && (p.Info.Uses[id] == obj || p.Info.Defs[id] == obj)
	}
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if n == creation {
				return true
			}
			if sel, sok := n.Fun.(*ast.SelectorExpr); sok && isObj(sel.X) {
				switch sel.Sel.Name {
				case "Close", "Stop", "Shutdown":
					ok = true
					return false
				}
			}
			// Passed to a callee (including close(ch) and wrapper
			// constructors): ownership transfers.
			for _, a := range n.Args {
				if isObj(a) {
					ok = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isObj(r) {
					ok = true
					return false
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if !isObj(r) || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					// Stored into a struct field: the owning type must
					// demonstrably release that field somewhere.
					class := fieldClass(p, lhs)
					if class == "" {
						ok = true // untrackable, prefer the false negative
					} else if m.releasedFields[class] {
						ok = true
					} else {
						badStore = "it is stored in " + classShort(class) +
							", and no function in the module ever calls Close/Stop on that field"
					}
				case *ast.IndexExpr:
					ok = true // map/slice handoff
				case *ast.Ident:
					ok = true // rebound; aliasing is out of scope
				}
			}
		case *ast.SendStmt:
			if isObj(n.Value) {
				ok = true
				return false
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				val := el
				var key ast.Expr
				if kv, kok := el.(*ast.KeyValueExpr); kok {
					key, val = kv.Key, kv.Value
				}
				if !isObj(val) {
					continue
				}
				class := compositeFieldClass(p, n, key)
				if class == "" {
					ok = true
				} else if m.releasedFields[class] {
					ok = true
				} else {
					badStore = "it is stored in " + classShort(class) +
						", and no function in the module ever calls Close/Stop on that field"
				}
			}
		}
		return !ok
	})
	if ok {
		return ""
	}
	if badStore != "" {
		return badStore
	}
	return "it is never closed, returned, stored, or passed on"
}

// compositeFieldClass names the field a composite-literal element
// initializes: "pkgpath.Type.field".
func compositeFieldClass(p *Package, lit *ast.CompositeLit, key ast.Expr) string {
	tv, ok := p.Info.Types[lit]
	if !ok || tv.Type == nil || key == nil {
		return ""
	}
	t := tv.Type
	if ptr, pok := t.Underlying().(*types.Pointer); pok {
		t = ptr.Elem()
	}
	named, nok := t.(*types.Named)
	if !nok || named.Obj().Pkg() == nil {
		return ""
	}
	id, iok := key.(*ast.Ident)
	if !iok {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + id.Name
}
