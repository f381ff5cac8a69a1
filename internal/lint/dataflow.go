package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the value-flow half of the dataflow stage: classic
// reaching definitions over the CFG, queried as def-use chains. The
// analyzers built on it ask position-level questions — "which definitions
// of this variable can reach this use?" — and get every definition that
// survives along some path, merged at joins and carried around loop
// back-edges.
//
//	hot-alloc  uses it to decide whether an append target was preallocated
//	           with capacity on every path into the loop;
//	atomic-mix uses it to exempt owner-local instances flow-sensitively
//	           (every reaching def is a fresh &T{}/new(T), so nothing can
//	           race yet);
//	wire-compat uses the flow-insensitive taint variant (sliceDerived) to
//	           prove encoded bytes actually thread through to the return.

// defInfo is one definition site of a variable.
type defInfo struct {
	obj     types.Object
	rhs     ast.Expr // defining expression; nil when none (param, range var, var decl)
	node    ast.Node // the defining statement (interval used for ordering)
	isParam bool     // function parameter / receiver / named result
}

// defUse holds the solved reaching-definitions problem for one function.
type defUse struct {
	g *cfg
	p *Package

	blockDefs map[*cfgBlock][]*defInfo                  // defs per block, in order
	in        map[*cfgBlock]map[types.Object][]*defInfo // defs reaching block entry
	nodeBlock []nodeInterval                            // shallow node -> owning block
}

type nodeInterval struct {
	pos, end token.Pos
	block    *cfgBlock
}

// newDefUse solves reaching definitions for decl's body over g.
func newDefUse(p *Package, g *cfg, decl *ast.FuncDecl) *defUse {
	du := &defUse{
		g:         g,
		p:         p,
		blockDefs: make(map[*cfgBlock][]*defInfo, len(g.blocks)),
		in:        make(map[*cfgBlock]map[types.Object][]*defInfo, len(g.blocks)),
	}
	for _, bl := range g.blocks {
		for _, n := range bl.nodes {
			du.nodeBlock = append(du.nodeBlock, nodeInterval{n.Pos(), n.End(), bl})
			du.blockDefs[bl] = append(du.blockDefs[bl], du.defsIn(n)...)
		}
	}

	// Entry facts: every parameter, receiver and named result defines its
	// object at function entry.
	var entryDefs []*defInfo
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					entryDefs = append(entryDefs, &defInfo{obj: obj, node: name, isParam: true})
				}
			}
		}
	}
	addFields(decl.Recv)
	addFields(decl.Type.Params)
	addFields(decl.Type.Results)

	// out[b] = (in[b] − kill) ∪ gen, where gen is the last def per object
	// in the block. Iterate to fixpoint (monotone, finite lattice).
	out := make(map[*cfgBlock]map[types.Object]map[*defInfo]bool, len(g.blocks))
	inSets := make(map[*cfgBlock]map[types.Object]map[*defInfo]bool, len(g.blocks))
	lastDef := func(bl *cfgBlock) map[types.Object]*defInfo {
		m := make(map[types.Object]*defInfo)
		for _, d := range du.blockDefs[bl] {
			m[d.obj] = d
		}
		return m
	}
	gens := make(map[*cfgBlock]map[types.Object]*defInfo, len(g.blocks))
	for _, bl := range g.blocks {
		gens[bl] = lastDef(bl)
	}
	for changed := true; changed; {
		changed = false
		for _, bl := range g.blocks {
			in := make(map[types.Object]map[*defInfo]bool)
			if bl == g.entry {
				for _, d := range entryDefs {
					addDef(in, d)
				}
			}
			for _, pr := range bl.preds {
				for obj, defs := range out[pr] {
					for d := range defs {
						if in[obj] == nil {
							in[obj] = make(map[*defInfo]bool)
						}
						in[obj][d] = true
					}
				}
			}
			inSets[bl] = in
			o := make(map[types.Object]map[*defInfo]bool, len(in))
			for obj, defs := range in {
				if _, killed := gens[bl][obj]; killed {
					continue
				}
				o[obj] = defs
			}
			for _, d := range gens[bl] {
				addDef(o, d)
			}
			if !sameDefSets(out[bl], o) {
				out[bl] = o
				changed = true
			}
		}
	}
	for _, bl := range g.blocks {
		m := make(map[types.Object][]*defInfo, len(inSets[bl]))
		for obj, defs := range inSets[bl] {
			for d := range defs {
				m[obj] = append(m[obj], d)
			}
			sort.Slice(m[obj], func(i, j int) bool { return m[obj][i].node.Pos() < m[obj][j].node.Pos() })
		}
		du.in[bl] = m
	}
	return du
}

func addDef(m map[types.Object]map[*defInfo]bool, d *defInfo) {
	if m[d.obj] == nil {
		m[d.obj] = make(map[*defInfo]bool)
	}
	m[d.obj][d] = true
}

func sameDefSets(a, b map[types.Object]map[*defInfo]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for obj, ad := range a {
		bd, ok := b[obj]
		if !ok || len(ad) != len(bd) {
			return false
		}
		for d := range ad {
			if !bd[d] {
				return false
			}
		}
	}
	return true
}

// defsIn extracts the definitions a shallow block node makes, in order.
func (du *defUse) defsIn(n ast.Node) []*defInfo {
	var out []*defInfo
	defIdent := func(e ast.Expr, rhs ast.Expr, node ast.Node) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := du.p.Info.Defs[id]
		if obj == nil {
			obj = du.p.Info.Uses[id]
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		out = append(out, &defInfo{obj: obj, rhs: rhs, node: node})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, l := range n.Lhs {
			var rhs ast.Expr
			if len(n.Lhs) == len(n.Rhs) {
				rhs = n.Rhs[i]
			}
			defIdent(l, rhs, n)
		}
	case *ast.IncDecStmt:
		defIdent(n.X, nil, n)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, vok := spec.(*ast.ValueSpec)
			if !vok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					rhs = vs.Values[i]
				}
				defIdent(name, rhs, n)
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			defIdent(n.Key, nil, n)
		}
		if n.Value != nil {
			defIdent(n.Value, nil, n)
		}
	case *ast.ExprStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.ReturnStmt:
		// No definitions.
	}
	return out
}

// reaching returns every definition of obj that can reach the program
// point at pos, sorted by definition position. pos must lie within one of
// the CFG's shallow nodes; an unknown position returns nil (callers treat
// that as "no information", biasing toward silence).
func (du *defUse) reaching(obj types.Object, pos token.Pos) []*defInfo {
	var bl *cfgBlock
	for _, iv := range du.nodeBlock {
		if iv.pos <= pos && pos <= iv.end {
			bl = iv.block
			break
		}
	}
	if bl == nil {
		return nil
	}
	defs := append([]*defInfo(nil), du.in[bl][obj]...)
	for _, d := range du.blockDefs[bl] {
		if d.obj != obj {
			continue
		}
		// A def in a node strictly before the use replaces everything; the
		// node containing the use itself has not taken effect yet.
		if d.node.End() <= pos {
			defs = defs[:0]
			defs = append(defs, d)
		}
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].node.Pos() < defs[j].node.Pos() })
	return defs
}

// --- derived-value taint (flow-insensitive) ------------------------------

// sliceDerived computes the set of local variables transitively derived
// from seed (a []byte parameter) by assignment through calls, append,
// slicing and plain copies anywhere in body. wire-compat uses it to prove
// AppendBinary's returned slice carries the encoded bytes.
func sliceDerived(p *Package, body ast.Node, seed types.Object) map[types.Object]bool {
	derived := map[types.Object]bool{seed: true}
	usesDerived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := p.Info.Uses[id]
				if obj != nil && derived[obj] {
					found = true
					return false
				}
			}
			return true
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			asgn, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// x, y, … = f(derived…) taints every result; x = derived taints x.
			tainted := false
			for _, r := range asgn.Rhs {
				if usesDerived(r) {
					tainted = true
					break
				}
			}
			if !tainted {
				return true
			}
			for _, l := range asgn.Lhs {
				id, iok := ast.Unparen(l).(*ast.Ident)
				if !iok || id.Name == "_" {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil && !derived[obj] && isByteSlice(obj.Type()) {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// --- freshness & preallocation classification ----------------------------

// freshAlloc reports whether e constructs a brand-new value: &T{}, T{},
// new(T). Used by atomic-mix's flow-sensitive owner-local exemption.
func freshAlloc(p *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new" && p.Info.Uses[id] == types.Universe.Lookup("new")
	}
	return false
}

// appendPrealloc classifies the definitions of an append target reaching
// a hot-loop append: it returns the first reaching definition that
// provably lacks capacity (nil, zero-value declaration, len-only make,
// empty literal), or nil when every path preallocated (3-arg make, a
// [:0] reslice, an unknown producer — false-negative bias). Appends
// inherit from their own base recursively, so the loop's self-definition
// does not mask the original zero-capacity origin.
func appendPrealloc(p *Package, du *defUse, obj types.Object, pos token.Pos) *defInfo {
	return badAllocDef(p, du, obj, pos, make(map[*defInfo]bool))
}

func badAllocDef(p *Package, du *defUse, obj types.Object, pos token.Pos, seen map[*defInfo]bool) *defInfo {
	for _, d := range du.reaching(obj, pos) {
		if seen[d] {
			continue
		}
		seen[d] = true
		if d.isParam {
			continue // caller-supplied: unknown, assume capacity
		}
		if d.rhs == nil {
			if _, isRange := d.node.(*ast.RangeStmt); isRange {
				continue
			}
			if _, isIncDec := d.node.(*ast.IncDecStmt); isIncDec {
				continue
			}
			return d // var x []T — zero value, no capacity
		}
		rhs := ast.Unparen(d.rhs)
		switch rhs := rhs.(type) {
		case *ast.Ident:
			if rhs.Name == "nil" {
				return d
			}
			// Copy: follow the source variable's defs at the copy site.
			if src := p.Info.Uses[rhs]; src != nil {
				if bad := badAllocDef(p, du, src, rhs.Pos(), seen); bad != nil {
					return bad
				}
			}
		case *ast.CompositeLit:
			if len(rhs.Elts) == 0 {
				return d // []T{} — zero capacity
			}
		case *ast.CallExpr:
			if id, ok := rhs.Fun.(*ast.Ident); ok {
				switch {
				case id.Name == "make" && p.Info.Uses[id] == types.Universe.Lookup("make"):
					if len(rhs.Args) < 3 {
						if _, isMap := typeOf(p, rhs).Underlying().(*types.Map); !isMap {
							return d // make([]T) / make([]T, n): no append headroom
						}
					}
				case id.Name == "append" && p.Info.Uses[id] == types.Universe.Lookup("append"):
					// Inherit from the appended base.
					if len(rhs.Args) > 0 {
						if base, bok := ast.Unparen(rhs.Args[0]).(*ast.Ident); bok {
							if src := p.Info.Uses[base]; src != nil {
								if bad := badAllocDef(p, du, src, rhs.Pos(), seen); bad != nil {
									return bad
								}
							}
						}
					}
				}
			}
		}
	}
	return nil
}

func typeOf(p *Package, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}
