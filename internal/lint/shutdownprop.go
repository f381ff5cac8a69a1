package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShutdownProp is the static complement of life-leak: life-leak proves a
// spawned goroutine is joined or signalled *somewhere*; shutdown-prop
// proves the spawned body can actually *hear* a stop. A goroutine whose
// body loops forever is flagged unless some reachable exit evidence flows
// from the spawner:
//
//   - a receive (or range) on a channel that the module somewhere closes
//     or sends on — the done-channel pattern. A receive on a channel with
//     no module-wide close or send is deaf: it does not count.
//   - a context.Context Done/Err check;
//   - blocking on a stoppable resource — a net connection/listener or
//     os.File (its Close unblocks the Read/Accept with an error), a local
//     bufio.Reader over one, or a field the module explicitly
//     close()/Close()/Stop()/Shutdown()s — together with a loop exit
//     (return/break) to take when it fails.
//
// Channels the analysis cannot resolve (parameters, externals like
// time.Ticker.C) are assumed stoppable; loops with a condition are assumed
// bounded. False negatives over false positives, like the rest of the
// suite.
func ShutdownProp() *Analyzer {
	return &Analyzer{
		Name: "shutdown-prop",
		Doc:  "every spawned endless loop must have reachable stop evidence (done recv, ctx check, closable I/O)",
		Run:  runShutdownProp,
	}
}

func runShutdownProp(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, sp := range m.spawns {
		if !inModuleScope(sp.mf.pkg.Path) {
			continue
		}
		if d := checkSpawn(m, sp); d != nil {
			out = append(out, *d)
		}
	}
	return out
}

func checkSpawn(m *Module, sp spawnSite) *Diagnostic {
	p := sp.mf.pkg
	owner := sp.mf
	var body *ast.BlockStmt
	switch fun := sp.g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if callee := m.calleeOf(p, sp.g.Call); callee != nil {
			body = callee.decl.Body
			owner = callee
			p = callee.pkg
		}
	}
	if body == nil {
		return nil // dynamic spawn target: nothing to prove
	}
	v := &shutdownScan{m: m, visited: make(map[*modFunc]bool)}
	v.scan(p, owner, body, 3)
	if v.endless && !v.evidence {
		return &Diagnostic{
			Pos:  sp.mf.pkg.position(sp.g),
			Rule: "shutdown-prop",
			Message: "goroutine spawned by " + sp.mf.obj.Name() + " loops forever with no reachable " +
				"stop signal (no done-channel the module closes, no ctx check, no closable I/O); " +
				"it outlives every shutdown",
		}
	}
	return nil
}

// shutdownScan walks a spawned body (and its static callees, to a small
// depth) looking for an endless loop and for stop evidence.
type shutdownScan struct {
	m        *Module
	visited  map[*modFunc]bool
	endless  bool
	evidence bool
}

func (v *shutdownScan) scan(p *Package, f *modFunc, body ast.Node, depth int) {
	ast.Inspect(body, func(n ast.Node) bool {
		if v.evidence {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Cond == nil {
				v.endless = true
				if v.loopEscape(p, f, n.Body) {
					v.evidence = true
				}
			}
		case *ast.RangeStmt:
			if t := typeOf(p, n.X); t != nil && isChanType(t) {
				// for range ch ends when ch is closed — if anyone closes it.
				if v.chanStoppable(p, f, n.X) {
					v.evidence = true
				} else {
					v.endless = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && v.chanStoppable(p, f, n.X) {
				v.evidence = true
			}
		case *ast.CallExpr:
			if isCtxCheck(p, n) {
				v.evidence = true
				return false
			}
			if callee := v.m.calleeOf(p, n); callee != nil && depth > 0 && !v.visited[callee] {
				v.visited[callee] = true
				v.scan(callee.pkg, callee, callee.decl.Body, depth-1)
			}
		}
		return !v.evidence
	})
}

// chanStoppable reports whether a receive from e can be released by some
// other party: the class is unresolvable or external (assumed yes), or the
// module somewhere closes or sends on it.
func (v *shutdownScan) chanStoppable(p *Package, f *modFunc, e ast.Expr) bool {
	class := chanClassOf(p, f, e)
	if class == "" || isParamClass(class) {
		return true
	}
	if !strings.HasPrefix(class, modulePrefix+"/") && !strings.HasPrefix(class, modulePrefix+".") {
		return true // external channel (time.Ticker.C, signal.Notify, ...)
	}
	ci := v.m.chans[class]
	return ci != nil && (len(ci.closes) > 0 || len(ci.sends) > 0)
}

// loopEscape reports whether an endless loop both blocks on a stoppable
// resource and has an exit (return/break) to take when it is released.
func (v *shutdownScan) loopEscape(p *Package, f *modFunc, body *ast.BlockStmt) bool {
	hasExit, hasClosable := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			hasExit = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				hasExit = true
			}
		case *ast.CallExpr:
			if v.closableCall(p, f, n) {
				hasClosable = true
			}
		}
		return true
	})
	return hasExit && hasClosable
}

// closableCall reports whether a call blocks on something whose Close (or
// unexported close) elsewhere in the module will unblock it: a method on a
// net conn/listener or os.File, a method on a field the module stops, or a
// call passing such a value — or a local bufio reader over one — as an
// argument (readFrame(conn), fr.read(br)).
func (v *shutdownScan) closableCall(p *Package, f *modFunc, call *ast.CallExpr) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s := p.Info.Selections[sel]; s != nil && isNetOrFileType(s.Recv()) {
			return true
		}
		if fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if cls := fieldClass(p, fieldSel); cls != "" && v.m.stoppedFields[cls] {
				return true
			}
		}
	}
	for _, a := range call.Args {
		if t := typeOf(p, a); t != nil && isNetOrFileType(t) {
			return true
		}
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && bufferedCloser(p, f, id) {
			return true
		}
	}
	return false
}

// bufferedCloser reports whether id is a local of f assigned from
// bufio.NewReader(x) or bufio.NewReaderSize(x, n) with x a net conn or
// *os.File: reading through the buffer blocks on x, so x's Close unblocks
// it just the same.
func bufferedCloser(p *Package, f *modFunc, id *ast.Ident) bool {
	obj := p.Info.Uses[id]
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(f.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return !found
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || (p.Info.Defs[lid] != obj && p.Info.Uses[lid] != obj) {
				continue
			}
			call, ok := as.Rhs[i].(*ast.CallExpr)
			if !ok {
				continue
			}
			if name, ok := pkgFuncCall(p, call, "bufio"); ok && (name == "NewReader" || name == "NewReaderSize") {
				if t := typeOf(p, call.Args[0]); t != nil && isNetOrFileType(t) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isCtxCheck matches ctx.Done() / ctx.Err() on a context.Context receiver.
func isCtxCheck(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

func typeOf(p *Package, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}
