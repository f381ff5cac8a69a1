package lint

import (
	"go/ast"
	"go/token"
)

// This file is the linter's one model of Go control flow: a lightweight
// intraprocedural CFG over function and closure bodies. if/for/range/
// switch/select/break/continue/fallthrough are interpreted here and nowhere
// else; every flow-sensitive analysis is an evaluation over these blocks:
//
//   - the held-lock walk (module.go) runs the blocks once in source order,
//     merging predecessor states at joins — back edges carry nothing;
//   - chan-proto's may-closed set iterates to a fixpoint, carrying facts
//     around loop back-edges.
//
// Module.cfgOf memoizes one graph per body, so the consumers share it.
//
// Blocks hold *shallow* nodes: simple statements and the scrutinee
// expressions of compound statements (an if's condition, a switch's tag,
// the RangeStmt itself for its Key/Value/X); compound bodies live in
// successor blocks. Consumers must therefore walk block nodes with
// inspectShallow, which prunes nested statement bodies and function
// literal bodies — a closure's body is a different unit of execution, not
// part of this block.

// cfgBlock is one basic block.
type cfgBlock struct {
	index int // position in cfg.blocks
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock // in link order: an if's then before its else, clauses top to bottom

	// branch is the if or select statement that ends the block. An if's
	// condition is the block's last node and its then-edge is succs[0]; a
	// select has no scrutinee, so it is reachable only from here — it must
	// not be a block node, its extent would cover its own clause blocks.
	branch ast.Stmt

	// ret is the terminating return statement, if any.
	ret *ast.ReturnStmt
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	// blocks lists every block in the order the builder entered it, which
	// is source order; each edge that is not a loop back-edge points forward
	// in it. Unreachable statements get predecessor-less blocks of their own.
	blocks []*cfgBlock
	entry  *cfgBlock
	// end is the block flow falls off the end of the body from; nil when
	// the body cannot complete normally. Blocks ended by panic or goto have
	// no successors either, but are not function exits.
	end *cfgBlock
}

// --- builder -------------------------------------------------------------

type cfgBuilder struct {
	g   *cfg
	cur *cfgBlock // nil while flow is unreachable

	// break/continue targets, innermost last. label "" matches any.
	breaks    []cfgTarget
	continues []cfgTarget
	// pending label for the immediately following for/range/switch/select.
	label string
}

type cfgTarget struct {
	label string
	block *cfgBlock
}

// buildCFG constructs the CFG of a function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	b.enter(new(cfgBlock))
	b.g.entry = b.cur
	b.stmts(body.List)
	b.g.end = b.cur
	return b.g
}

// cfgOf returns the CFG of a function or closure body, built on first use:
// the lock walk visits every body several times per run and chan-proto
// wants the same graph.
func (m *Module) cfgOf(body *ast.BlockStmt) *cfg {
	g := m.cfgs[body]
	if g == nil {
		g = buildCFG(body)
		m.cfgs[body] = g
	}
	return g
}

// enter makes bl the current block. Every block is entered exactly once,
// when the builder reaches the source it holds, so cfg.blocks comes out in
// source order however early a jump target had to be allocated.
func (b *cfgBuilder) enter(bl *cfgBlock) {
	bl.index = len(b.g.blocks)
	b.g.blocks = append(b.g.blocks, bl)
	b.cur = bl
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	if from == nil {
		return
	}
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

// add appends a shallow node to the current block; unreachable statements
// get a fresh predecessor-less block so their contents are still visible
// to scanning passes.
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.enter(new(cfgBlock))
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// Any statement other than a labeled loop/switch consumes the label.
	label := b.label
	b.label = ""
	switch s := s.(type) {
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur = nil
		}
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt, *ast.SendStmt,
		*ast.DeferStmt, *ast.GoStmt, *ast.EmptyStmt:
		b.add(s)
	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.cur.ret = s
			b.cur = nil
		}
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.LabeledStmt:
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Tag)
		b.switchBody(s.Body, label, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		// A select always runs exactly one clause, so there is no
		// no-clause fallthrough edge.
		if b.cur != nil {
			b.cur.branch = s
		}
		b.switchBody(s.Body, label, true)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		b.jump(b.breaks, label)
	case token.CONTINUE:
		b.jump(b.continues, label)
	case token.FALLTHROUGH, token.GOTO:
		// switchBody consumes a clause's trailing fallthrough itself, and
		// there is no goto in the analyzed tree today; either one reaching
		// here is an opaque exit, so nothing downstream is wrongly assumed
		// reachable from it.
		b.cur = nil
	}
}

func (b *cfgBuilder) jump(targets []cfgTarget, label string) {
	for i := len(targets) - 1; i >= 0; i-- {
		if label == "" || targets[i].label == label {
			b.link(b.cur, targets[i].block)
			break
		}
	}
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	cond.branch = s
	join := new(cfgBlock)

	then := new(cfgBlock)
	b.link(cond, then)
	b.enter(then)
	b.stmts(s.Body.List)
	b.link(b.cur, join)

	if s.Else != nil {
		els := new(cfgBlock)
		b.link(cond, els)
		b.enter(els)
		b.stmt(s.Else)
		b.link(b.cur, join)
	} else {
		b.link(cond, join)
	}
	b.enter(join)
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := new(cfgBlock)
	b.link(b.cur, head)
	b.enter(head)
	b.add(s.Cond)

	after := new(cfgBlock)
	post := head
	if s.Post != nil {
		post = new(cfgBlock)
	}
	b.breaks = append(b.breaks, cfgTarget{label, after}, cfgTarget{"", after})
	b.continues = append(b.continues, cfgTarget{label, post}, cfgTarget{"", post})

	body := new(cfgBlock)
	b.link(head, body)
	if s.Cond != nil {
		b.link(head, after)
	}
	b.enter(body)
	b.stmts(s.Body.List)
	b.link(b.cur, post)
	if s.Post != nil {
		b.enter(post)
		b.stmt(s.Post)
		b.link(b.cur, head)
	}

	b.breaks = b.breaks[:len(b.breaks)-2]
	b.continues = b.continues[:len(b.continues)-2]
	b.enter(after)
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := new(cfgBlock)
	b.link(b.cur, head)
	b.enter(head)
	// The RangeStmt itself is the head's shallow node: it reads s.X and
	// defines s.Key/s.Value each iteration. inspectShallow prunes s.Body.
	b.add(s)

	after := new(cfgBlock)
	b.link(head, after)
	b.breaks = append(b.breaks, cfgTarget{label, after}, cfgTarget{"", after})
	b.continues = append(b.continues, cfgTarget{label, head}, cfgTarget{"", head})

	body := new(cfgBlock)
	b.link(head, body)
	b.enter(body)
	b.stmts(s.Body.List)
	b.link(b.cur, head)

	b.breaks = b.breaks[:len(b.breaks)-2]
	b.continues = b.continues[:len(b.continues)-2]
	b.enter(after)
}

// switchBody builds clause blocks for switch/type-switch/select bodies.
// exhaustive means one clause always runs (a default exists, or select).
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, exhaustive bool) {
	scrutinee := b.cur
	join := new(cfgBlock)
	b.breaks = append(b.breaks, cfgTarget{label, join}, cfgTarget{"", join})

	// First pass: create a body block per clause so fallthrough can link
	// forward.
	caseBlocks := make([]*cfgBlock, len(body.List))
	for i := range caseBlocks {
		caseBlocks[i] = new(cfgBlock)
	}
	for i, c := range body.List {
		b.link(scrutinee, caseBlocks[i])
		b.enter(caseBlocks[i])
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				b.add(e)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				b.add(c.Comm)
			}
			stmts = c.Body
		}
		// A trailing fallthrough is the edge into the next clause; it is
		// taken off the list here, because as a statement it would end the
		// block before the edge could be linked from it.
		if n := len(stmts); n > 0 && i+1 < len(caseBlocks) {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				b.stmts(stmts[:n-1])
				b.link(b.cur, caseBlocks[i+1])
				continue
			}
		}
		b.stmts(stmts)
		b.link(b.cur, join)
	}
	if !exhaustive {
		b.link(scrutinee, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-2]
	b.enter(join)
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// --- traversal helpers ---------------------------------------------------

// inspectShallow walks a block node the way CFG consumers must: into
// expressions and simple statements, but never into a nested function
// literal's body (a different execution unit) — the FuncLit node itself is
// still visited. Compound statement bodies never appear inside block nodes
// except for RangeStmt, whose Body is pruned here.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if !fn(x) {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			// Visit Key/Value/X manually; prune Body.
			if x.Key != nil {
				inspectShallow(x.Key, fn)
			}
			if x.Value != nil {
				inspectShallow(x.Value, fn)
			}
			inspectShallow(x.X, fn)
			return false
		}
		return true
	})
}
