package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc makes the batched-path allocation budget a static property.
// Functions annotated
//
//	//cscw:hotpath
//
// in their doc comment — and every module function they statically reach —
// must not contain the heap-escaping constructs that show up as allocs/op
// in internal/bench: boxing a concrete value into an interface parameter,
// creating a closure (function literals and method values), allocating a
// map, growing an append target that was never given capacity, or calling
// into fmt. Error paths are exempt: blocks from which every path ends in
// an error return or a panic are cold, and an allocation that only happens
// when the operation is already failing is not a throughput regression.
//
// The transitive closure follows static calls only (the same resolution
// the lock summaries use); an interface call is a hot-path boundary, and a
// closure body is its own unit — the closure's *creation* is what the hot
// function pays for, and that is what gets flagged.
func HotAlloc() *ModuleAnalyzer {
	return &ModuleAnalyzer{
		Name: "hot-alloc",
		Doc:  "//cscw:hotpath functions and their static callees must not box, close over, build maps, grow bare appends, or call fmt outside error paths",
		Run:  runHotAlloc,
	}
}

// hotpathDirective is the annotation hot-alloc keys on.
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

func runHotAlloc(m *Module) []Diagnostic {
	hot := hotFuncs(m)
	var out []Diagnostic
	for _, mf := range m.byName {
		why := hot[mf]
		if why == "" || !inModuleScope(mf.pkg.Path) {
			continue
		}
		out = append(out, hotAllocFunc(m, mf, why)...)
	}
	return out
}

// hotAllocFunc scans one hot function's non-cold blocks.
func hotAllocFunc(m *Module, mf *modFunc, why string) []Diagnostic {
	p := mf.pkg
	g := m.cfgOf(mf.decl.Body)
	cold := g.coldBlocks(p, mf.decl.Body)
	du := newDefUse(p, g, mf.decl)
	loops, loopVars := loopExtents(p, mf.decl.Body)
	inLoop := func(pos token.Pos) bool {
		for _, iv := range loops {
			if iv.pos <= pos && pos < iv.end {
				return true
			}
		}
		return false
	}

	var out []Diagnostic
	report := func(n ast.Node, what string) {
		out = append(out, Diagnostic{
			Pos:  p.position(n),
			Rule: "hot-alloc",
			Message: fmt.Sprintf("%s in hot-path function %s (%s)",
				what, mf.obj.Name(), why),
		})
	}
	// Arguments of calls already reported whole (fmt) are not re-reported
	// as boxing: one diagnostic per paid cost.
	skipArgs := make(map[ast.Expr]bool)
	// Selector expressions serving as a call's Fun are method *calls*, not
	// method values.
	callFuns := make(map[ast.Expr]bool)

	for _, bl := range g.blocks {
		if cold[bl] {
			continue
		}
		for _, node := range bl.nodes {
			if asgn, ok := node.(*ast.AssignStmt); ok {
				out = append(out, hotAppendChecks(p, mf, du, asgn, inLoop, why)...)
			}
			inspectShallow(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					if v := capturedLoopVar(p, n, loopVars); v != "" {
						report(n, "closure capturing loop variable "+v+" (allocates per iteration)")
					} else {
						report(n, "function literal (allocates a closure)")
					}
				case *ast.CompositeLit:
					if _, isMap := typeOf(p, n).Underlying().(*types.Map); isMap {
						report(n, "map literal allocation")
					}
				case *ast.SelectorExpr:
					if callFuns[n] {
						return true
					}
					if s := p.Info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
						report(n, fmt.Sprintf("method value %s (allocates a closure)", renderSel(n)))
					}
				case *ast.CallExpr:
					callFuns[ast.Unparen(n.Fun)] = true
					out = append(out, hotCallChecks(p, n, skipArgs, report)...)
				}
				return true
			})
		}
	}
	return out
}

// hotCallChecks flags fmt calls, map makes, and interface boxing at one
// call site.
func hotCallChecks(p *Package, call *ast.CallExpr, skipArgs map[ast.Expr]bool, report func(ast.Node, string)) []Diagnostic {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			report(call, fmt.Sprintf("call to fmt.%s (allocates via reflection)", sel.Sel.Name))
			for _, a := range call.Args {
				skipArgs[a] = true
			}
			return nil
		}
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	if tv.IsType() {
		// Conversion: T(x) boxes when T is an interface and x is a concrete
		// non-pointer value.
		if len(call.Args) == 1 && boxes(p, tv.Type, call.Args[0]) {
			report(call, fmt.Sprintf("conversion boxes %s into %s",
				typeShort(typeOf(p, call.Args[0])), typeShort(tv.Type)))
		}
		return nil
	}
	if tv.IsBuiltin() {
		if id, iok := call.Fun.(*ast.Ident); iok && id.Name == "make" {
			if _, isMap := typeOf(p, call).Underlying().(*types.Map); isMap {
				report(call, "map allocation (make)")
			}
		}
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		if skipArgs[arg] {
			continue
		}
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // s... passes the slice through, no per-element boxing
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			sl, sok := sig.Params().At(np - 1).Type().Underlying().(*types.Slice)
			if !sok {
				continue
			}
			pt = sl.Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(p, pt, arg) {
			report(arg, fmt.Sprintf("argument boxes %s into %s",
				typeShort(typeOf(p, arg)), typeShort(pt)))
		}
	}
	return nil
}

// boxes reports whether passing arg as a param of type pt heap-allocates an
// interface value: pt is an interface and arg is a concrete value whose
// representation does not already fit the interface's data word (pointers,
// channels, maps, funcs and existing interfaces do; structs, strings,
// slices and scalars do not).
func boxes(p *Package, pt types.Type, arg ast.Expr) bool {
	if _, isIface := pt.Underlying().(*types.Interface); !isIface {
		return false
	}
	at := typeOf(p, arg)
	if at == nil || at == types.Typ[types.Invalid] {
		return false
	}
	if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
		return false
	}
	switch at.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

// hotAppendChecks flags loop appends whose target provably lacks capacity
// on some path (reaching definitions: nil, zero-value var, len-only make,
// empty literal).
func hotAppendChecks(p *Package, mf *modFunc, du *defUse, asgn *ast.AssignStmt, inLoop func(token.Pos) bool, why string) []Diagnostic {
	if len(asgn.Lhs) != len(asgn.Rhs) || !inLoop(asgn.Pos()) {
		return nil
	}
	var out []Diagnostic
	for i, rhs := range asgn.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || p.Info.Uses[id] != types.Universe.Lookup("append") {
			continue
		}
		target, ok := ast.Unparen(asgn.Lhs[i]).(*ast.Ident)
		if !ok || target.Name == "_" {
			continue
		}
		obj := p.Info.Uses[target]
		if obj == nil {
			obj = p.Info.Defs[target]
		}
		if obj == nil {
			continue
		}
		if bad := appendPrealloc(p, du, obj, call.Pos()); bad != nil {
			out = append(out, Diagnostic{
				Pos:  p.position(call),
				Rule: "hot-alloc",
				Message: fmt.Sprintf("append grows %s in a loop but its definition at line %d has no preallocated capacity, in hot-path function %s (%s)",
					target.Name, p.Fset.Position(bad.node.Pos()).Line, mf.obj.Name(), why),
			})
		}
	}
	return out
}

// loopExtents returns the source intervals of every for/range body in the
// function (function literals pruned — their loops are their own unit) and
// the set of loop variables those loops define.
func loopExtents(p *Package, body *ast.BlockStmt) (loops []nodeInterval, loopVars map[types.Object]bool) {
	loopVars = make(map[types.Object]bool)
	markDef := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			loops = append(loops, nodeInterval{pos: n.Body.Pos(), end: n.Body.End()})
			if init, ok := n.Init.(*ast.AssignStmt); ok {
				for _, l := range init.Lhs {
					markDef(l)
				}
			}
		case *ast.RangeStmt:
			loops = append(loops, nodeInterval{pos: n.Body.Pos(), end: n.Body.End()})
			if n.Key != nil {
				markDef(n.Key)
			}
			if n.Value != nil {
				markDef(n.Value)
			}
		}
		return true
	})
	return loops, loopVars
}

// capturedLoopVar names a loop variable the literal captures, or "".
func capturedLoopVar(p *Package, lit *ast.FuncLit, loopVars map[types.Object]bool) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && loopVars[obj] {
				name = id.Name
				return false
			}
		}
		return true
	})
	return name
}

// renderSel renders x.M for diagnostics.
func renderSel(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return "(…)." + sel.Sel.Name
}
