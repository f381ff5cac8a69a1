package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags calls whose error result is silently discarded — a bare
// expression statement calling a messaging, codec or registration function
// that returns an error. A dropped Send hides partitions from the caller; a
// dropped Unmarshal delivers garbage downstream. Deliberate best-effort
// discards stay legal but must be visible: assign the error to blank
// (`_ = ep.Send(...)`), ideally with a comment saying why dropping is safe.
func ErrDrop() *Analyzer {
	// Function/method names in the messaging, codec and registration
	// families whose errors are never safe to drop invisibly.
	watched := map[string]bool{
		"Send": true, "Multicast": true,
		"SyncPoint": true, "Call": true,
		"Marshal": true, "Unmarshal": true, "Encode": true, "Decode": true,
		"Register": true, "Handle": true, "Subscribe": true,
	}
	return &Analyzer{
		Name: "err-drop",
		Doc:  "no silently discarded errors from Send/codec/registration calls",
		Run: func(p *Package) []Diagnostic {
			if !strings.HasPrefix(p.Path, modulePrefix+"/") && p.Path != modulePrefix {
				return nil
			}
			var out []Diagnostic
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					es, ok := n.(*ast.ExprStmt)
					if !ok {
						return true
					}
					call, ok := es.X.(*ast.CallExpr)
					if !ok {
						return true
					}
					name := calleeName(call)
					if !watched[name] || !returnsError(p, call) {
						return true
					}
					out = append(out, Diagnostic{
						Pos:  p.position(call),
						Rule: "err-drop",
						Message: "error result of " + name + " is silently discarded; " +
							"handle it or discard explicitly with _ =",
					})
					return true
				})
			}
			return out
		},
	}
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// returnsError reports whether the call's only or last result is error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
