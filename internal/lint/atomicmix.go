package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AtomicMix enforces access-mode consistency for fields touched through
// sync/atomic: once any function in the module does
//
//	atomic.AddUint64(&x.f, 1)
//
// every other access of that field class must also go through sync/atomic —
// a plain read can observe a torn or stale value, and a plain write races
// with the atomic ones (the Go memory model gives mixed access no
// guarantees at all). Fields of the self-typed atomics (atomic.Uint64 and
// friends) need no rule: their only access path is already atomic.
//
// Where guard-infer exempts owner-local instances flow-insensitively (any
// fresh binding anywhere in the function), atomic-mix uses the reaching-
// definitions engine: an access is exempt only when *every* definition of
// the base variable reaching that access is a fresh &T{}/T{}/new(T) — the
// def-use precision this stage adds. Rebinding the variable to a shared
// instance on any path re-arms the rule.
func AtomicMix() *ModuleAnalyzer {
	return &ModuleAnalyzer{
		Name: "atomic-mix",
		Doc:  "fields accessed via sync/atomic must never be read or written plainly elsewhere",
		Run:  runAtomicMix,
	}
}

// atomicWitness records one sync/atomic call on a field class.
type atomicWitness struct {
	op  string
	pos token.Position
}

func runAtomicMix(m *Module) []Diagnostic {
	// Pass 1: field classes passed by address to sync/atomic package
	// functions, anywhere in the module, plus the selector positions that
	// *are* those atomic accesses (excluded from pass 2).
	witnesses := make(map[string]atomicWitness)
	atomicUse := make(map[token.Pos]bool)
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
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
				return true
			}
			if p.Info.Selections[sel] != nil {
				return true // method on atomic.Uint64 etc.: self-syncing type
			}
			for _, a := range call.Args {
				u, uok := ast.Unparen(a).(*ast.UnaryExpr)
				if !uok || u.Op != token.AND {
					continue
				}
				fsel, fok := ast.Unparen(u.X).(*ast.SelectorExpr)
				if !fok {
					continue
				}
				class := fieldClass(p, fsel)
				if class == "" {
					continue
				}
				atomicUse[fsel.Pos()] = true
				if _, seen := witnesses[class]; !seen {
					witnesses[class] = atomicWitness{op: "atomic." + sel.Sel.Name, pos: p.position(call)}
				}
			}
			return true
		})
	}
	if len(witnesses) == 0 {
		return nil
	}

	// Pass 2: plain accesses of those classes.
	var out []Diagnostic
	for _, mf := range m.byName {
		if !inModuleScope(mf.pkg.Path) {
			continue
		}
		out = append(out, atomicMixFunc(m, mf, witnesses, atomicUse)...)
	}
	return out
}

func atomicMixFunc(m *Module, mf *modFunc, witnesses map[string]atomicWitness, atomicUse map[token.Pos]bool) []Diagnostic {
	p := mf.pkg
	// Cheap pre-scan: does this body mention any atomic field name at all?
	names := make(map[string]bool)
	for class := range witnesses {
		names[class[strings.LastIndexByte(class, '.')+1:]] = true
	}
	touches := false
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && names[sel.Sel.Name] {
			touches = true
			return false
		}
		return !touches
	})
	if !touches {
		return nil
	}

	g := m.cfgOf(mf.decl.Body)
	du := newDefUse(p, g, mf.decl)
	writes := writePositions(mf.decl.Body)

	var out []Diagnostic
	var classes []string
	hits := make(map[string][]*ast.SelectorExpr)
	ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := p.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal || atomicUse[sel.Pos()] {
			return true
		}
		class := fieldClass(p, sel)
		if _, isAtomic := witnesses[class]; !isAtomic {
			return true
		}
		if len(hits[class]) == 0 {
			classes = append(classes, class)
		}
		hits[class] = append(hits[class], sel)
		return true
	})
	sort.Strings(classes)
	for _, class := range classes {
		w := witnesses[class]
		for _, sel := range hits[class] {
			if ownerLocalAccess(p, du, sel) {
				continue
			}
			mode := "read"
			if writes[sel.Pos()] {
				mode = "written"
			}
			out = append(out, Diagnostic{
				Pos:  p.position(sel),
				Rule: "atomic-mix",
				Message: fmt.Sprintf("field %s is accessed via %s (e.g. at %s:%d) but %s plainly here — mixed atomic/plain access is a data race",
					classShort(class), w.op, shortFile(w.pos.Filename), w.pos.Line, mode),
			})
		}
	}
	return out
}

// ownerLocalAccess reports whether the selector's base variable is provably
// a function-local fresh instance at this program point: every reaching
// definition is a fresh allocation. A base that is not a simple local (a
// receiver, a field chain, a global) is never exempt.
func ownerLocalAccess(p *Package, du *defUse, sel *ast.SelectorExpr) bool {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	defs := du.reaching(obj, sel.Pos())
	if len(defs) == 0 {
		return false
	}
	for _, d := range defs {
		if d.isParam || d.rhs == nil || !freshAlloc(p, d.rhs) {
			return false
		}
	}
	return true
}
