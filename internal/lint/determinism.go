package lint

import (
	"go/ast"
	"go/types"
)

// DetTime flags wall-clock reads in trace-critical packages. The chaos
// harness replays scenarios in virtual time; a single time.Now on a traced
// path makes traces differ between runs of the same seed. Clocks are
// injected instead (func() time.Duration — netsim.Sim.Now, fabric.WallClock
// at the real-time edge).
func DetTime() *Analyzer {
	flagged := map[string]bool{"Now": true, "Since": true, "Until": true}
	return &Analyzer{
		Name: "det-time",
		Doc:  "no time.Now/Since/Until in trace-critical packages; inject a clock",
		Run: func(p *Package) []Diagnostic {
			if !inDeterminismScope(p.Path) {
				return nil
			}
			var out []Diagnostic
			inspectCalls(p, func(call *ast.CallExpr) {
				name, ok := pkgFuncCall(p, call, "time")
				if !ok || !flagged[name] {
					return
				}
				out = append(out, Diagnostic{
					Pos:  p.position(call),
					Rule: "det-time",
					Message: "time." + name + " reads the wall clock in a trace-critical package; " +
						"inject a clock (func() time.Duration) instead",
				})
			})
			return out
		},
	}
}

// DetRand flags draws from math/rand's global generator. Seeded experiments
// and chaos scenarios thread an explicit *rand.Rand; the global functions
// share cross-package state and break per-seed reproducibility. The
// constructors (New, NewSource, NewZipf) stay legal — they are how the
// injected generators get made.
func DetRand() *Analyzer {
	global := map[string]bool{
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "NormFloat64": true,
		"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
		"Read": true,
	}
	return &Analyzer{
		Name: "det-rand",
		Doc:  "no global math/rand draws in trace-critical packages; inject a seeded *rand.Rand",
		Run: func(p *Package) []Diagnostic {
			if !inDeterminismScope(p.Path) {
				return nil
			}
			var out []Diagnostic
			inspectCalls(p, func(call *ast.CallExpr) {
				name, ok := pkgFuncCall(p, call, "math/rand")
				if !ok || !global[name] {
					return
				}
				out = append(out, Diagnostic{
					Pos:  p.position(call),
					Rule: "det-rand",
					Message: "rand." + name + " draws from the process-global generator; " +
						"inject a seeded *rand.Rand instead",
				})
			})
			return out
		},
	}
}

// DetMapOrder flags ranging over a map when the loop body has an
// order-sensitive effect — sending, writing output, or appending to an
// outer slice that is not subsequently sorted. Go randomizes map iteration
// order per run, so such loops feed traces, ledgers or wire traffic in a
// different order every execution. The blessed idiom is collect-keys /
// sort / iterate, which the analyzer recognizes and accepts.
func DetMapOrder() *Analyzer {
	return &Analyzer{
		Name: "det-maporder",
		Doc:  "no order-sensitive effects inside range-over-map; iterate sorted keys",
		Run: func(p *Package) []Diagnostic {
			if !inDeterminismScope(p.Path) {
				return nil
			}
			var out []Diagnostic
			for _, f := range p.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					walkStmtLists(fd.Body, func(stmts []ast.Stmt, i int) {
						rs, ok := stmts[i].(*ast.RangeStmt)
						if !ok || !rangesOverMap(p, rs) {
							return
						}
						if reason := orderSensitive(p, rs, stmts[i+1:]); reason != "" {
							out = append(out, Diagnostic{
								Pos:  p.position(rs),
								Rule: "det-maporder",
								Message: "range over a map " + reason +
									"; iteration order is randomized — iterate a sorted key slice",
							})
						}
					})
				}
			}
			return out
		},
	}
}

// rangesOverMap reports whether rs iterates a map value.
func rangesOverMap(p *Package, rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// orderSensitive inspects a range-over-map body for effects whose result
// depends on iteration order. rest is the statement tail following the
// range in its enclosing block, used to accept the collect-then-sort idiom.
// It returns a short description of the offending effect, or "".
func orderSensitive(p *Package, rs *ast.RangeStmt, rest []ast.Stmt) string {
	// Method calls that emit in iteration order: sends, output, logging.
	emitters := map[string]bool{
		"Send": true, "Multicast": true, "Broadcast": true, "Post": true,
		"Emit": true, "Record": true, "Write": true, "WriteString": true,
		"WriteByte": true, "Printf": true, "Print": true, "Println": true,
		"Fprintf": true, "Fprint": true, "Fprintln": true, "Log": true,
		"Logf": true,
	}
	var reason string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // deferred execution; not this loop's order
		case *ast.SendStmt:
			reason = "sends on a channel"
			return false
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && emitters[sel.Sel.Name] {
				reason = "calls " + sel.Sel.Name
				return false
			}
			if id, ok := n.Fun.(*ast.Ident); ok && emitters[id.Name] {
				reason = "calls " + id.Name
				return false
			}
		case *ast.AssignStmt:
			if r := assignSensitivity(p, n, rs, rest); r != "" {
				reason = r
				return false
			}
		}
		return true
	})
	return reason
}

// assignSensitivity classifies an assignment inside a range-over-map body:
// appending to (or concatenating onto) a variable declared outside the loop
// accumulates in iteration order, unless the variable is sorted afterwards.
func assignSensitivity(p *Package, as *ast.AssignStmt, rs *ast.RangeStmt, rest []ast.Stmt) string {
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if obj == nil || !declaredOutside(obj, rs) {
			continue
		}
		// s += expr (string accumulation).
		if as.Tok.String() == "+=" && isString(obj.Type()) {
			return "concatenates onto " + id.Name
		}
		if i < len(as.Rhs) {
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
					if sortedAfter(p, obj, rest) {
						continue
					}
					return "appends to " + id.Name
				}
			}
		}
	}
	return ""
}

// declaredOutside reports whether obj's declaration precedes the range
// statement (i.e. it outlives the loop body).
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos()
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// sortedAfter reports whether the statements following the range pass obj
// to a sort.* or slices.Sort* call — the collect-then-sort idiom.
func sortedAfter(p *Package, obj types.Object, rest []ast.Stmt) bool {
	sorters := map[string]bool{
		"Strings": true, "Ints": true, "Float64s": true, "Slice": true,
		"SliceStable": true, "Sort": true, "SortFunc": true, "SortStableFunc": true,
		"Stable": true,
	}
	found := false
	for _, st := range rest {
		ast.Inspect(st, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, okp := calledPackage(p, call)
			if !okp || (pkg != "sort" && pkg != "slices") {
				return true
			}
			sel := call.Fun.(*ast.SelectorExpr)
			if !sorters[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			if arg, ok := call.Args[0].(*ast.Ident); ok && p.Info.Uses[arg] == obj {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// --- small shared AST helpers -------------------------------------------

// inspectCalls walks every call expression in the package.
func inspectCalls(p *Package, fn func(*ast.CallExpr)) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fn(call)
			}
			return true
		})
	}
}

// pkgFuncCall returns the function name if call is pkgpath.Name(...) on the
// package with the given import path.
func pkgFuncCall(p *Package, call *ast.CallExpr, pkgPath string) (string, bool) {
	pkg, ok := calledPackage(p, call)
	if !ok || pkg != pkgPath {
		return "", false
	}
	return call.Fun.(*ast.SelectorExpr).Sel.Name, true
}

// calledPackage resolves call.Fun as a selector on an imported package and
// returns that package's import path.
func calledPackage(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// walkStmtLists visits every statement list under body — the body itself,
// nested blocks, case/comm clauses and function-literal bodies — calling fn
// with the list and an index for each statement, so analyses can see a
// statement's following siblings. Each list is visited exactly once.
func walkStmtLists(body *ast.BlockStmt, fn func(stmts []ast.Stmt, i int)) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		}
		for i := range list {
			fn(list, i)
		}
		return true
	})
}
