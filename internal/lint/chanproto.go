package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ChanProto checks channel lifecycle protocol over the module's channel
// indexes and call summaries. Go's channel rules are directional: only the
// sending side may close (a send on a closed channel panics, a second close
// panics), and an unbuffered channel is a rendezvous — if every receiver
// needs a lock the sender is holding, the handoff can never complete. Four
// checks:
//
//   - close by a non-sender: a module-internal channel class closed by a
//     function that never sends on it, while other functions do send.
//     Done-channels (closed, never sent on — the close IS the signal) are
//     the legitimate shape and pass.
//   - double close reachable on some CFG path within one function, the
//     second close possibly hidden behind a helper call ($param
//     substitution) or a defer.
//   - send reachable after a close of the same channel instance on some
//     CFG path.
//   - unbuffered send while holding a lock that every known receiver of
//     that channel also needs (the locked-rendezvous deadlock).
//   - unconditional close of a captured channel inside an escaping
//     callback closure: a closure stored into a field or passed to a
//     registration function may be invoked again (a rejoin ack re-fires
//     OnJoined), and the second invocation panics. sync.Once.Do is the
//     sanctioned guard. Immediately invoked literals (go/defer/call) run
//     once and pass.
//
// The CFG checks compare instance anchors, not just classes, so closing
// two different endpoints' done channels in sequence is not a double
// close. Unanchorable expressions get unique keys: false negatives over
// false positives, as everywhere in this suite.
func ChanProto() *Analyzer {
	return &Analyzer{
		Name: "chan-proto",
		Doc:  "channel lifecycle: sender-side close, no double close, no send after close, no locked unbuffered handoff",
		Run:  runChanProto,
	}
}

func runChanProto(m *Module) []Diagnostic {
	var out []Diagnostic
	out = append(out, chanOwnership(m)...)
	out = append(out, chanLockedHandoff(m)...)
	for _, mf := range m.byName {
		if inModuleScope(mf.pkg.Path) {
			out = append(out, chanCFGFunc(m, mf)...)
			out = append(out, chanCallbackClose(mf)...)
		}
	}
	return out
}

// chanCallbackClose flags closes of captured channels inside escaping
// function literals — callbacks, by construction re-invocable — unless the
// close is wrapped in sync.Once.Do. A literal that is immediately invoked
// (plain call, go, defer) runs exactly once and is exempt.
func chanCallbackClose(mf *modFunc) []Diagnostic {
	p := mf.pkg
	var out []Diagnostic
	invoked := map[*ast.FuncLit]bool{} // literals called where they appear
	var onceBodies []*ast.FuncLit      // literals passed to sync.Once.Do
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fl, ok := call.Fun.(*ast.FuncLit); ok {
			invoked[fl] = true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Do" {
			if s := p.Info.Selections[sel]; s != nil && isSyncOnce(s.Recv()) {
				for _, a := range call.Args {
					if fl, ok := ast.Unparen(a).(*ast.FuncLit); ok {
						onceBodies = append(onceBodies, fl)
					}
				}
			}
		}
		return true
	})
	inOnce := func(pos token.Pos) bool {
		for _, fl := range onceBodies {
			if fl.Pos() <= pos && pos <= fl.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if !ok || invoked[fl] {
			return true
		}
		ast.Inspect(fl.Body, func(inner ast.Node) bool {
			call, ok := inner.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, isIdent := call.Fun.(*ast.Ident)
			if !isIdent || id.Name != "close" || len(call.Args) != 1 ||
				p.Info.Uses[id] != types.Universe.Lookup("close") {
				return true
			}
			arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := p.Info.Uses[arg].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
				return true
			}
			// Captured: declared outside this literal's own body.
			if fl.Body.Pos() <= v.Pos() && v.Pos() <= fl.Body.End() {
				return true
			}
			if inOnce(call.Pos()) {
				return true
			}
			out = append(out, Diagnostic{
				Pos:  p.position(call),
				Rule: "chan-proto",
				Message: "close of captured " + arg.Name + " inside a callback closure: callbacks " +
					"can fire more than once (e.g. a rejoin ack) and a second close panics; " +
					"wrap the close in sync.Once.Do",
			})
			return true
		})
		return true
	})
	return out
}

func isSyncOnce(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" &&
		named.Obj().Name() == "Once"
}

// chanOwnership flags closes of module-owned channel classes performed by
// functions that never (even transitively) send on them, when someone else
// does. The via chain names the helper that performed the close when the
// close arrived through substitution.
func chanOwnership(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, class := range m.sortedChanClasses() {
		if !strings.HasPrefix(class, modulePrefix+"/") && !strings.HasPrefix(class, modulePrefix+".") {
			continue
		}
		ci := m.chans[class]
		if len(ci.closes) == 0 || len(ci.sends) == 0 {
			continue
		}
		senders := make(map[*modFunc]bool, len(ci.sends))
		for _, s := range ci.sends {
			senders[s.mf] = true
		}
		witness := ci.sends[0].mf.obj.Name()
		for _, cl := range ci.closes {
			if senders[cl.mf] || !inModuleScope(cl.mf.pkg.Path) {
				continue
			}
			// Direct closes and $param-substituted ones are each attributed
			// to exactly one site; a non-param close inherited from a callee
			// is that callee's own (direct) report.
			if cl.via != "" && !cl.substituted {
				continue
			}
			detail := ""
			if cl.via != "" {
				detail = " (via " + cl.via + ")"
			}
			out = append(out, Diagnostic{
				Pos:  cl.pos,
				Rule: "chan-proto",
				Message: "close of " + chanShort(class) + detail + " on the receiving side: " +
					witness + " still sends on it; only the sending side may close " +
					"(a send on a closed channel panics)",
			})
		}
	}
	return out
}

// chanLockedHandoff flags unbuffered sends made while holding a lock that
// every known receiver of the channel also holds on entry to its receive.
func chanLockedHandoff(m *Module) []Diagnostic {
	var out []Diagnostic
	for _, class := range m.sortedChanClasses() {
		ci := m.chans[class]
		if !ci.unbuffered || ci.buffered || len(ci.recvs) == 0 {
			continue
		}
		common := map[string]bool{}
		for _, l := range ci.recvs[0].held {
			common[l] = true
		}
		for _, r := range ci.recvs[1:] {
			next := map[string]bool{}
			for _, l := range r.held {
				if common[l] {
					next[l] = true
				}
			}
			common = next
		}
		if len(common) == 0 {
			continue
		}
		for _, snd := range ci.sends {
			if snd.nonblocking || !inLockScope(snd.mf.pkg.Path) {
				continue
			}
			for _, l := range snd.held {
				if !common[l] || isParamClass(l) {
					continue
				}
				out = append(out, Diagnostic{
					Pos:  snd.pos,
					Rule: "chan-proto",
					Message: "unbuffered send on " + chanShort(class) + " while " + classShort(l) +
						" is held, and every receive of " + chanShort(class) + " also holds " +
						classShort(l) + "; the handoff can never complete",
				})
				break
			}
		}
	}
	return out
}

// chanCFGFunc runs the per-function CFG checks (double close, send after
// close) over the declared body and each function literal as its own unit.
func chanCFGFunc(m *Module, mf *modFunc) []Diagnostic {
	units := []*ast.BlockStmt{mf.decl.Body}
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			units = append(units, fl.Body)
		}
		return true
	})
	var out []Diagnostic
	for _, u := range units {
		out = append(out, chanCFGUnit(m, mf, u)...)
	}
	return out
}

// chanEvent is one in-order channel operation in a CFG block. key couples
// the class with the instance anchor.
type chanEvent struct {
	kind chanOpKind
	key  string
	name string // display name: chanShort(class) [+ via]
	node ast.Node
}

func chanCFGUnit(m *Module, mf *modFunc, body *ast.BlockStmt) []Diagnostic {
	p := mf.pkg
	g := m.cfgOf(body)
	events := make(map[*cfgBlock][]chanEvent)
	var deferred []chanEvent
	any := false

	mkEvent := func(kind chanOpKind, class string, anchor ast.Expr, n ast.Node, via string) (chanEvent, bool) {
		if class == "" || isParamClass(class) {
			return chanEvent{}, false
		}
		name := chanShort(class)
		if via != "" {
			name += " (via " + via + ")"
		}
		return chanEvent{
			kind: kind,
			key:  class + "|" + instanceAnchor(p, anchor, n.Pos()),
			name: name,
			node: n,
		}, true
	}
	// calleeEvents expands a resolved call's summary closes/sends at the
	// call site, anchored by the receiver (x.Close()) or the substituted
	// argument (closeAll(ch)).
	calleeEvents := func(call *ast.CallExpr, closesOnly bool) []chanEvent {
		callee := m.calleeOf(p, call)
		if callee == nil {
			return nil
		}
		var evs []chanEvent
		for _, f := range sortedOps(callee) {
			if f.kind == chRecv || (closesOnly && f.kind != chClose) {
				continue
			}
			var anchor ast.Expr
			cls := f.class
			if isParamClass(cls) {
				anchor = paramArg(cls, call)
				cls = chanClassOf(p, mf, anchor)
			} else if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				anchor = sel.X
			}
			if anchor == nil {
				continue
			}
			if ev, ok := mkEvent(f.kind, cls, anchor, call, viaCall(callee, f.via)); ok {
				evs = append(evs, ev)
			}
		}
		return evs
	}

	for _, bl := range g.blocks {
		for _, node := range bl.nodes {
			if ds, ok := node.(*ast.DeferStmt); ok {
				// Deferred closes run once, at exit; they only conflict with
				// other closes of the same instance.
				if cls, isClose := closeArgClass(p, mf, ds.Call); isClose {
					if ev, ok := mkEvent(chClose, cls, ds.Call.Args[0], ds.Call, ""); ok {
						deferred = append(deferred, ev)
						any = true
					}
				} else if fl, isLit := ds.Call.Fun.(*ast.FuncLit); isLit {
					ast.Inspect(fl.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							if cls, isClose := closeArgClass(p, mf, call); isClose {
								if ev, ok := mkEvent(chClose, cls, call.Args[0], call, ""); ok {
									deferred = append(deferred, ev)
									any = true
								}
							}
						}
						return true
					})
				} else {
					deferred = append(deferred, calleeEvents(ds.Call, true)...)
				}
				continue
			}
			if _, ok := node.(*ast.GoStmt); ok {
				continue // spawned work is not on this path
			}
			inspectShallow(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SendStmt:
					if ev, ok := mkEvent(chSend, chanClassOf(p, mf, n.Chan), n.Chan, n, ""); ok {
						events[bl] = append(events[bl], ev)
						any = true
					}
				case *ast.CallExpr:
					if cls, isClose := closeArgClass(p, mf, n); isClose {
						if ev, ok := mkEvent(chClose, cls, n.Args[0], n, ""); ok {
							events[bl] = append(events[bl], ev)
							any = true
						}
						return true
					}
					if evs := calleeEvents(n, false); len(evs) > 0 {
						events[bl] = append(events[bl], evs...)
						any = true
					}
				}
				return true
			})
		}
	}
	if !any {
		return nil
	}

	// Forward may-analysis: the set of instance keys whose close may have
	// executed on some path into the block.
	closedOut := make(map[*cfgBlock]map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, bl := range g.blocks {
			in := map[string]bool{}
			for _, pr := range bl.preds {
				for k := range closedOut[pr] {
					in[k] = true
				}
			}
			for _, e := range events[bl] {
				if e.kind == chClose {
					in[e.key] = true
				}
			}
			if !sameKeys(in, closedOut[bl]) {
				closedOut[bl] = in
				changed = true
			}
		}
	}

	var out []Diagnostic
	reported := map[string]bool{}
	report := func(e chanEvent, msg string) {
		rk := msg + "@" + e.key
		if reported[rk] {
			return
		}
		reported[rk] = true
		out = append(out, Diagnostic{Pos: p.position(e.node), Rule: "chan-proto", Message: msg})
	}
	for _, bl := range g.blocks {
		soFar := map[string]bool{}
		for _, pr := range bl.preds {
			for k := range closedOut[pr] {
				soFar[k] = true
			}
		}
		for _, e := range events[bl] {
			switch e.kind {
			case chClose:
				if soFar[e.key] {
					report(e, "close of "+e.name+" is reachable more than once on a path through "+
						mf.obj.Name()+" (a second close panics)")
				}
				soFar[e.key] = true
			case chSend:
				if soFar[e.key] {
					report(e, "send on "+e.name+" is reachable after its close in "+
						mf.obj.Name()+" (a send on a closed channel panics)")
				}
			}
		}
	}
	// A deferred close runs after everything else: it conflicts with any
	// in-order close of the same instance, or with a second deferred one.
	inOrderClosed := map[string]bool{}
	for _, bl := range g.blocks {
		for _, e := range events[bl] {
			if e.kind == chClose {
				inOrderClosed[e.key] = true
			}
		}
	}
	seenDeferred := map[string]bool{}
	for _, d := range deferred {
		if inOrderClosed[d.key] || seenDeferred[d.key] {
			report(d, "deferred close of "+d.name+" runs after another close of the same channel in "+
				mf.obj.Name()+" (a second close panics)")
		}
		seenDeferred[d.key] = true
	}
	return out
}

// sortedOps returns a function's channel facts in deterministic key order.
func sortedOps(mf *modFunc) []chanFact {
	keys := make([]string, 0, len(mf.ops))
	for k := range mf.ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]chanFact, 0, len(keys))
	for _, k := range keys {
		out = append(out, mf.ops[k])
	}
	return out
}
