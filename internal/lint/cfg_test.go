package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses the statements of one function body. buildCFG needs no
// type information.
func parseBody(t *testing.T, stmts string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "body.go", "package p\nfunc f() {\n"+stmts+"\n}", 0)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f.Decls[0].(*ast.FuncDecl).Body
}

// blockAtLine returns the block holding the node that starts on line
// (counted within the stmts passed to parseBody).
func blockAtLine(t *testing.T, fset *token.FileSet, g *cfg, line int) *cfgBlock {
	t.Helper()
	for _, bl := range g.blocks {
		for _, n := range bl.nodes {
			if fset.Position(n.Pos()).Line == line+2 {
				return bl
			}
		}
	}
	t.Fatalf("no block node on line %d", line)
	return nil
}

// TestCFGFallthroughEdge: a clause ending in fallthrough flows into the
// next clause's block and nowhere else.
func TestCFGFallthroughEdge(t *testing.T) {
	fset, body := parseBody(t, strings.Join([]string{
		"switch k {", // 1
		"case 1:",    // 2
		"x = 1",      // 3
		"fallthrough",
		"case 2:", // 5
		"x += 2",  // 6
		"}",
	}, "\n"))
	g := buildCFG(body)
	one, two := blockAtLine(t, fset, g, 3), blockAtLine(t, fset, g, 6)
	if len(one.succs) != 1 || one.succs[0] != two {
		t.Errorf("case-1 block has %d successor(s), want exactly the case-2 block", len(one.succs))
	}
}

// TestCFGSourceOrder pins what the lock walk relies on: blocks are listed
// in source order, so that evaluating them once front to back sees every
// predecessor but loop back-edges first — including the statement after an
// endless loop, which is reachable only through a break deep in the body.
func TestCFGSourceOrder(t *testing.T) {
	fset, body := parseBody(t, strings.Join([]string{
		"a()",         // 1
		"for {",       // 2
		"if b() {",    // 3
		"c()",         // 4
		"break",       // 5
		"}",           // 6
		"d()",         // 7
		"}",           // 8
		"e()",         // 9
		"panic(\"\")", // 10
	}, "\n"))
	g := buildCFG(body)
	last := token.NoPos
	for _, bl := range g.blocks {
		for _, n := range bl.nodes {
			if n.Pos() < last {
				t.Errorf("block %d: node at %v comes after a later one", bl.index, fset.Position(n.Pos()))
			}
			last = n.Pos()
		}
	}
	for i, bl := range g.blocks {
		if bl.index != i {
			t.Errorf("blocks[%d].index = %d", i, bl.index)
		}
		for _, s := range bl.succs {
			found := false
			for _, pr := range s.preds {
				found = found || pr == bl
			}
			if !found {
				t.Errorf("edge %d→%d missing from preds", bl.index, s.index)
			}
		}
	}
	after, brk := blockAtLine(t, fset, g, 9), blockAtLine(t, fset, g, 4)
	if len(after.preds) != 1 || after.preds[0] != brk {
		t.Errorf("the block after the loop has %d predecessor(s), want only the break's block", len(after.preds))
	}
	if rest := blockAtLine(t, fset, g, 7); rest.index > after.index {
		t.Errorf("loop remainder (block %d) listed after the code following the loop (block %d)", rest.index, after.index)
	}
	if g.end != nil {
		t.Errorf("body ends in panic but end = block %d", g.end.index)
	}
}
