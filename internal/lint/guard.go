package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// GuardInfer infers, per struct that carries its own mutex, which fields
// that mutex guards — any field written at least once while the struct's
// mutex is held in write flavor — and then flags every access of a guarded
// field made without the mutex: writes need the write flavor, reads accept
// either flavor (RLock suffices). These are static race candidates,
// complementing `go test -race`, which only sees executed interleavings.
//
// Exemptions, to keep the signal honest:
//   - owner-local instances: accesses through a variable bound to a fresh
//     &T{} / T{} / new(T) in the same function (constructors initialize
//     before the value is shared — there is nothing to race with yet);
//   - fields of sync/sync.atomic types (mutexes, WaitGroups, atomics):
//     they synchronize themselves;
//   - structs with no mutex field of their own: a field guarded by some
//     *other* struct's lock is outside this rule's instance-insensitive
//     reach (false-negative bias, as elsewhere in this package).
//
// Held-lock facts come from the same entry-context fixpoint the other
// module analyzers use, so an unexported helper only ever called under the
// lock counts as locked, while closures and exported entry points start
// lock-free.
func GuardInfer() *Analyzer {
	return &Analyzer{
		Name: "guard-infer",
		Doc:  "fields written under a struct's own mutex must not be accessed without it",
		Run:  runGuardInfer,
	}
}

// guardAccess is one observed field access with its lock context.
type guardAccess struct {
	class     string // "pkgpath.Type.field"
	owner     string // "pkgpath.Type"
	write     bool
	heldWrite bool // owner's mutex held, write flavor
	heldAny   bool // owner's mutex held, any flavor
	exempt    bool // owner-local instance
	pos       token.Position
	fn        string
	inScope   bool
}

func runGuardInfer(m *Module) []Diagnostic {
	mutexFields := collectMutexFields(m)
	var accesses []guardAccess
	for _, mf := range m.byName {
		mf := mf
		scoped := inModuleScope(mf.pkg.Path)
		fname := mf.obj.Name()
		writes := writePositions(mf.decl.Body)
		locals := ownerLocals(mf.pkg, mf.decl.Body)
		onNode := func(n ast.Node, st *lockState) {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return
			}
			s := mf.pkg.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			if isSelfSyncing(s.Obj().Type()) {
				return
			}
			class := fieldClass(mf.pkg, sel)
			if class == "" {
				return
			}
			owner := class[:strings.LastIndexByte(class, '.')]
			muClasses := mutexFields[owner]
			if len(muClasses) == 0 {
				return
			}
			a := guardAccess{
				class:   class,
				owner:   owner,
				write:   writes[sel.Pos()],
				pos:     mf.pkg.position(sel),
				fn:      fname,
				inScope: scoped,
			}
			for _, h := range st.held {
				for _, mc := range muClasses {
					if h.class == mc {
						a.heldAny = true
						if !h.read {
							a.heldWrite = true
						}
					}
				}
			}
			if id, iok := ast.Unparen(sel.X).(*ast.Ident); iok {
				obj := mf.pkg.Info.Uses[id]
				if obj == nil {
					obj = mf.pkg.Info.Defs[id]
				}
				if locals[obj] {
					a.exempt = true
				}
			}
			accesses = append(accesses, a)
		}
		m.walkAllUnits(mf, m.entryState(mf), walkEvents{onNode: onNode})
	}

	// Inference: a field is guarded when some write happens under the
	// owner's write lock.
	type evidence struct {
		mu  string
		pos token.Position
	}
	guarded := make(map[string]evidence)
	for _, a := range accesses {
		if a.write && a.heldWrite {
			if _, ok := guarded[a.class]; !ok {
				mu := mutexFields[a.owner][0]
				guarded[a.class] = evidence{mu: mu, pos: a.pos}
			}
		}
	}

	var out []Diagnostic
	for _, a := range accesses {
		ev, isGuarded := guarded[a.class]
		if !isGuarded || !a.inScope || a.exempt {
			continue
		}
		if a.write && !a.heldWrite {
			out = append(out, Diagnostic{
				Pos:  a.pos,
				Rule: "guard-infer",
				Message: fmt.Sprintf("field %s is written under %s (e.g. at %s:%d) but written here without holding it exclusively — a data race candidate",
					classShort(a.class), classShort(ev.mu), shortFile(ev.pos.Filename), ev.pos.Line),
			})
		} else if !a.write && !a.heldAny {
			out = append(out, Diagnostic{
				Pos:  a.pos,
				Rule: "guard-infer",
				Message: fmt.Sprintf("field %s is written under %s (e.g. at %s:%d) but read here without holding it (RLock suffices for reads) — a data race candidate",
					classShort(a.class), classShort(ev.mu), shortFile(ev.pos.Filename), ev.pos.Line),
			})
		}
	}
	return out
}

// collectMutexFields maps "pkgpath.Type" to the classes of its own mutex
// fields, for every top-level struct type in the module.
func collectMutexFields(m *Module) map[string][]string {
	out := make(map[string][]string)
	for _, p := range m.Pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			owner := p.Types.Path() + "." + tn.Name()
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if isMutexType(f.Type()) {
					out[owner] = append(out[owner], owner+"."+f.Name())
				}
			}
			sort.Strings(out[owner])
		}
	}
	return out
}

// writePositions records the positions of selector expressions used as
// assignment targets, inc/dec operands, or address-of operands (an escaping
// pointer may be written through).
func writePositions(body ast.Node) map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	mark := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			out[sel.Pos()] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				mark(l)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
	return out
}

// ownerLocals finds variables bound to freshly constructed values — &T{},
// T{}, new(T) — anywhere in the body. Accesses through them are
// initialization, not sharing.
func ownerLocals(p *Package, body ast.Node) map[types.Object]bool {
	out := make(map[types.Object]bool)
	fresh := func(e ast.Expr) bool {
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
	ast.Inspect(body, func(n ast.Node) bool {
		asgn, ok := n.(*ast.AssignStmt)
		if !ok || len(asgn.Lhs) != len(asgn.Rhs) {
			return true
		}
		for i, r := range asgn.Rhs {
			if !fresh(r) {
				continue
			}
			if id, iok := asgn.Lhs[i].(*ast.Ident); iok {
				if obj := p.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isSelfSyncing reports types that synchronize their own access: anything
// from sync or sync/atomic (mutexes, WaitGroups, atomic values).
func isSelfSyncing(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// shortFile is a path's last element, for positions quoted inside messages.
func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
