package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireCompat proves encode/decode symmetry for hand-rolled binary wire
// types: any named type with both halves of the fabric contract —
//
//	AppendBinary(dst []byte) ([]byte, error)
//	ParseBinary(data []byte) error
//
// (matched structurally, so fixtures and future packages need no fabric
// import) — must touch the same receiver fields in the same order on both
// sides. A struct field added for durability that AppendBinary encodes but
// ParseBinary never reads back vanishes on the wire; one that ParseBinary
// populates but AppendBinary never writes decodes to garbage the moment
// replicas disagree about it; an exported field neither side touches is
// silently absent from the format. On top of the field symmetry, a
// derived-slice taint over the appender proves the bytes actually thread
// through: AppendBinary must return a slice derived from dst, and a
// discarded Append* result (an expression statement returning []byte)
// means encoded bytes were dropped. The parse half has no such check: a
// ParseBinary reads through a fabric.Reader, which owns the cursor.
func WireCompat() *ModuleAnalyzer {
	return &ModuleAnalyzer{
		Name: "wire-compat",
		Doc:  "BinaryAppender/BinaryParser pairs must encode and decode the same fields in the same order, threading dst through",
		Run:  runWireCompat,
	}
}

// wirePair is one type implementing both halves.
type wirePair struct {
	typ *types.TypeName
	app *modFunc
	par *modFunc
}

func runWireCompat(m *Module) []Diagnostic {
	pairs := make(map[types.Object]*wirePair)
	var order []types.Object
	for _, mf := range m.byName {
		if mf.decl.Recv == nil {
			continue
		}
		fn, ok := mf.obj.(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		var half int // 1 appender, 2 parser
		switch mf.decl.Name.Name {
		case "AppendBinary":
			if sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) &&
				sig.Results().Len() == 2 && isByteSlice(sig.Results().At(0).Type()) &&
				isErrorType(sig.Results().At(1).Type()) {
				half = 1
			}
		case "ParseBinary":
			if sig.Params().Len() == 1 && isByteSlice(sig.Params().At(0).Type()) &&
				sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) {
				half = 2
			}
		}
		if half == 0 {
			continue
		}
		rt := sig.Recv().Type()
		if ptr, pok := rt.Underlying().(*types.Pointer); pok {
			rt = ptr.Elem()
		}
		named, nok := rt.(*types.Named)
		if !nok {
			continue
		}
		tn := named.Obj()
		wp := pairs[tn]
		if wp == nil {
			wp = &wirePair{typ: tn}
			pairs[tn] = wp
			order = append(order, tn)
		}
		if half == 1 {
			wp.app = mf
		} else {
			wp.par = mf
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := pairs[order[i]], pairs[order[j]]
		return a.typ.Pkg().Path()+"."+a.typ.Name() < b.typ.Pkg().Path()+"."+b.typ.Name()
	})

	var out []Diagnostic
	for _, tn := range order {
		wp := pairs[tn]
		if wp.app == nil || wp.par == nil || !inModuleScope(wp.app.pkg.Path) {
			continue
		}
		out = append(out, checkWirePair(wp)...)
	}
	return out
}

func checkWirePair(wp *wirePair) []Diagnostic {
	var out []Diagnostic
	tname := wp.typ.Name()
	appRecv := recvObject(wp.app)
	parRecv := recvObject(wp.par)
	if appRecv == nil || parRecv == nil {
		return nil // unnamed receiver: nothing to trace
	}
	enc := fieldMentions(wp.app.pkg, appRecv, wp.app.decl.Body)
	dec := fieldMentions(wp.par.pkg, parRecv, wp.par.decl.Body)
	encSet, decSet := mentionSet(enc), mentionSet(dec)

	appPos := wp.app.pkg.position(wp.app.decl)
	parPos := wp.par.pkg.position(wp.par.decl)
	for _, f := range enc {
		if !decSet[f.name] {
			out = append(out, Diagnostic{
				Pos:  parPos,
				Rule: "wire-compat",
				Message: fmt.Sprintf("%s.ParseBinary never reads field %s, which AppendBinary encodes (line %d) — the field vanishes on decode",
					tname, f.name, wp.app.pkg.Fset.Position(f.pos).Line),
			})
		}
	}
	for _, f := range dec {
		if !encSet[f.name] {
			out = append(out, Diagnostic{
				Pos:  appPos,
				Rule: "wire-compat",
				Message: fmt.Sprintf("%s.AppendBinary never encodes field %s, which ParseBinary populates (line %d) — decode reads bytes that were never written",
					tname, f.name, wp.par.pkg.Fset.Position(f.pos).Line),
			})
		}
	}

	// Order: the fields both sides touch must be touched in the same order.
	var encCommon, decCommon []string
	for _, f := range enc {
		if decSet[f.name] {
			encCommon = append(encCommon, f.name)
		}
	}
	for _, f := range dec {
		if encSet[f.name] {
			decCommon = append(decCommon, f.name)
		}
	}
	if len(encCommon) == len(decCommon) {
		for i := range encCommon {
			if encCommon[i] != decCommon[i] {
				out = append(out, Diagnostic{
					Pos:  appPos,
					Rule: "wire-compat",
					Message: fmt.Sprintf("%s field order differs: AppendBinary encodes [%s], ParseBinary reads [%s]",
						tname, strings.Join(encCommon, " "), strings.Join(decCommon, " ")),
				})
				break
			}
		}
	}

	// Coverage: every exported struct field must be on the wire somewhere.
	if st, ok := wp.typ.Type().Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || encSet[f.Name()] || decSet[f.Name()] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:  appPos,
				Rule: "wire-compat",
				Message: fmt.Sprintf("exported field %s.%s is touched by neither AppendBinary nor ParseBinary — it is silently absent from the wire format",
					tname, f.Name()),
			})
		}
	}

	return append(out, checkSliceThreading(wp.app)...)
}

// checkSliceThreading taints AppendBinary's dst parameter through the body
// and flags (a) a discarded call result carrying derived bytes and (b) a
// return whose slice is not derived from dst.
func checkSliceThreading(mf *modFunc) []Diagnostic {
	p := mf.pkg
	sig := mf.obj.(*types.Func).Type().(*types.Signature)
	seed := sig.Params().At(0)
	derived := sliceDerived(p, mf.decl.Body, seed)
	usesDerived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil && derived[obj] {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}

	var out []Diagnostic
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			call, ok := ast.Unparen(n.X).(*ast.CallExpr)
			if !ok || !hasByteSliceResult(p, call) || !usesDerived(call) {
				return true
			}
			out = append(out, Diagnostic{
				Pos:     p.position(call),
				Rule:    "wire-compat",
				Message: fmt.Sprintf("AppendBinary discards the []byte result of %s — encoded bytes are dropped", callName(call)),
			})
		case *ast.ReturnStmt:
			if len(n.Results) == 0 {
				return true
			}
			first := ast.Unparen(n.Results[0])
			if isNilIdent(first) || usesDerived(first) {
				return true
			}
			out = append(out, Diagnostic{
				Pos:     p.position(n),
				Rule:    "wire-compat",
				Message: "AppendBinary returns a slice not derived from dst — everything appended so far is dropped",
			})
		}
		return true
	})
	return out
}

// --- helpers -------------------------------------------------------------

// recvObject is the receiver variable's object, or nil for _ receivers.
func recvObject(mf *modFunc) types.Object {
	names := mf.decl.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return mf.pkg.Info.Defs[names[0]]
}

// fieldMention is one first-occurrence top-level receiver field access.
type fieldMention struct {
	name string
	pos  token.Pos
}

// fieldMentions lists the receiver's top-level fields in first-mention
// source order: for m.Sub.Op the wire-relevant field is Sub. Function
// literal bodies are pruned (not this unit's wire traffic).
func fieldMentions(p *Package, recv types.Object, body *ast.BlockStmt) []fieldMention {
	type hit struct {
		name string
		pos  token.Pos
	}
	var hits []hit
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, iok := ast.Unparen(sel.X).(*ast.Ident)
		if !iok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if obj != recv {
			return true
		}
		if s := p.Info.Selections[sel]; s == nil || s.Kind() != types.FieldVal {
			return true // method call on the receiver, not wire traffic
		}
		hits = append(hits, hit{sel.Sel.Name, sel.Pos()})
		return true
	})
	sort.Slice(hits, func(i, j int) bool { return hits[i].pos < hits[j].pos })
	var out []fieldMention
	seen := make(map[string]bool)
	for _, h := range hits {
		if seen[h.name] {
			continue
		}
		seen[h.name] = true
		out = append(out, fieldMention{h.name, h.pos})
	}
	return out
}

func mentionSet(ms []fieldMention) map[string]bool {
	out := make(map[string]bool, len(ms))
	for _, m := range ms {
		out[m.name] = true
	}
	return out
}

// hasByteSliceResult reports whether the call produces at least one []byte.
func hasByteSliceResult(p *Package, call *ast.CallExpr) bool {
	t := typeOf(p, call)
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isByteSlice(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isByteSlice(t)
}

// callName renders the called function for diagnostics.
func callName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return renderSel(f)
	}
	return "call"
}
