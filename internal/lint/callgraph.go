package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// The stage-4 concurrency call graph (DESIGN.md §6). It lifts the PR 8
// CFG/def-use machinery interprocedurally the way PR 5 lifted lock deltas:
// every declared function gets a summary of its channel operations and its
// most blocking behaviour, with $param:i placeholders substituted at call
// sites, and the whole module gets a per-channel-class index of make/send/
// recv/close sites with the lock context each site runs under. The three
// stage-4 analyzers (chan-proto, block-lock, shutdown-prop) are views over
// this one structure, so it is built once per Module and cached.

// chanOpKind classifies one channel operation in a summary.
type chanOpKind int

const (
	chSend chanOpKind = iota
	chRecv
	chClose
)

func (k chanOpKind) String() string {
	switch k {
	case chSend:
		return "send"
	case chRecv:
		return "recv"
	default:
		return "close"
	}
}

// chanFact is one channel operation a function performs, directly or
// through any static call chain. class may be a $param:i placeholder;
// via names the call chain for facts inherited from callees.
type chanFact struct {
	kind  chanOpKind
	class string
	via   string
}

func chanFactKey(kind chanOpKind, class string) string {
	return kind.String() + "|" + class
}

// concSummary is the per-function half of the call graph.
type concSummary struct {
	// ops is the set of channel operations reachable from this function's
	// straight-line body (closures excluded — they run later, off the
	// caller's path), keyed by kind|class. Bounded by classes × kinds, so
	// the propagation fixpoint terminates.
	ops map[string]chanFact
	// blockDesc is a human description of the first blocking behaviour the
	// body can reach ("a channel send", "time.Sleep", "net.Conn.Read
	// (blocking I/O)", ...), or "" when nothing blocking was found.
	blockDesc string
	// retMake classifies single-result channel constructors: 0 means not
	// one, chanUnbuffered/chanBuffered mean `return make(chan T[, n])`.
	retMake int8
}

const (
	chanUnbuffered int8 = 1
	chanBuffered   int8 = 2
)

// chanSite is one concrete operation site, attributed to the function whose
// body (or closure) contains it. For sites inherited from a callee, pos is
// the call site and via names the chain.
type chanSite struct {
	mf  *modFunc
	pos token.Position
	// held lists the lock classes held at the site (the walker's converged
	// entry context included).
	held []string
	via  string
	// substituted marks sites that came from a callee's $param:i fact —
	// those are attributed to exactly one call site, so they are safe to
	// report without double-counting the callee's own body.
	substituted bool
	// nonblocking marks operations appearing as a select communication
	// clause: they only fire when already ready.
	nonblocking bool
}

// chanInfo aggregates everything the module does to one channel class.
type chanInfo struct {
	unbuffered bool // some make site is provably capacity-0
	buffered   bool // some make site has capacity > 0 (or dynamic)
	sends      []chanSite
	recvs      []chanSite
	closes     []chanSite
}

// spawnSite is one `go` statement, for shutdown-prop.
type spawnSite struct {
	mf *modFunc
	g  *ast.GoStmt
}

// concGraph is the module-level aggregate.
type concGraph struct {
	sums   map[*modFunc]*concSummary
	chans  map[string]*chanInfo
	spawns []spawnSite
	// stoppedFields records field/package-var classes on which some module
	// function calls close/Close/Stop/Shutdown — evidence that a resource a
	// loop blocks on is stoppable (the lowercase-close complement of
	// Module.releasedFields).
	stoppedFields map[string]bool
}

// concurrency builds (once) and returns the stage-4 call graph.
func (m *Module) concurrency() *concGraph {
	if m.conc != nil {
		return m.conc
	}
	c := &concGraph{
		sums:          make(map[*modFunc]*concSummary),
		chans:         make(map[string]*chanInfo),
		stoppedFields: make(map[string]bool),
	}
	for _, mf := range m.byName {
		c.sums[mf] = &concSummary{ops: make(map[string]chanFact)}
	}
	c.retMakeFixpoint(m)
	c.collectMakes(m)
	c.opsFixpoint(m)
	c.collectSites(m)
	c.indexStops(m)
	m.conc = c
	return c
}

// ConcStage drops the cached call graph and reruns the three stage-4
// analyzers over it from scratch. This is the benchmark surface behind
// cscwbench's lint_stage4_ms row and BenchmarkConcStage: the module's older
// summaries (locks, entry contexts) are reused, so what is measured is the
// marginal cost stage 4 added to the suite.
func (m *Module) ConcStage() []Diagnostic {
	m.conc = nil
	var out []Diagnostic
	for _, a := range []*ModuleAnalyzer{BlockLock(), ChanProto(), ShutdownProp()} {
		out = append(out, a.Run(m)...)
	}
	return out
}

func (c *concGraph) info(class string) *chanInfo {
	ci := c.chans[class]
	if ci == nil {
		ci = &chanInfo{}
		c.chans[class] = ci
	}
	return ci
}

// sortedChanClasses returns the class keys in deterministic order.
func (c *concGraph) sortedChanClasses() []string {
	out := make([]string, 0, len(c.chans))
	for k := range c.chans {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- channel classes -----------------------------------------------------

// chanClassOf names the channel class of an expression, mirroring classOf
// for mutexes: struct fields get "pkgpath.Type.field", package-level vars
// "pkgpath.name", channel-typed parameters "$param:i", and local channel
// variables a per-declaration "pkgpath.Func.name@L<line>" key (unique, so
// two locals in different functions never alias). Unresolvable expressions
// return "": false negatives over false positives.
func chanClassOf(p *Package, f *modFunc, e ast.Expr) string {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return fieldClass(p, e)
	case *ast.Ident:
		class, local := varClass(p, f, e, isChanType)
		if local != nil {
			return local.Pkg().Path() + "." + f.obj.Name() + "." + local.Name() +
				"@L" + strconv.Itoa(p.Fset.Position(local.Pos()).Line)
		}
		return class
	}
	return ""
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// chanShort renders a channel class for diagnostics: "transport.MemEndpoint.done".
func chanShort(class string) string {
	s := classShort(class)
	if at := strings.LastIndex(s, "@L"); at >= 0 {
		s = s[:at]
	}
	return s
}

// substituteChanClass resolves a callee fact's class at a call site.
func substituteChanClass(p *Package, f *modFunc, class string, call *ast.CallExpr) string {
	if !isParamClass(class) {
		return class
	}
	return chanClassOf(p, f, paramArg(class, call))
}

// closeArgClass matches the builtin close(ch) and names its argument's
// class. ok reports "this is a close call" even when the class is "".
func closeArgClass(p *Package, f *modFunc, call *ast.CallExpr) (string, bool) {
	id, isIdent := call.Fun.(*ast.Ident)
	if !isIdent || id.Name != "close" || len(call.Args) != 1 {
		return "", false
	}
	if p.Info.Uses[id] != types.Universe.Lookup("close") {
		return "", false
	}
	return chanClassOf(p, f, call.Args[0]), true
}

// chanMakeKind classifies make(chan T[, n]) expressions: chanUnbuffered for
// no capacity or a constant 0, chanBuffered otherwise (dynamic capacities
// count as buffered — false negatives over false positives for the
// unbuffered-handoff rule), 0 for anything that is not a channel make.
func chanMakeKind(p *Package, e ast.Expr) int8 {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return 0
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || p.Info.Uses[id] != types.Universe.Lookup("make") {
		return 0
	}
	if tv, tok := p.Info.Types[call]; !tok || tv.Type == nil || !isChanType(tv.Type) {
		return 0
	}
	if len(call.Args) < 2 {
		return chanUnbuffered
	}
	if tv, ok := p.Info.Types[call.Args[1]]; ok && tv.Value != nil {
		if n, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && n == 0 {
			return chanUnbuffered
		}
	}
	return chanBuffered
}

// --- pass 1: constructor returns -----------------------------------------

// retMakeFixpoint classifies functions whose single result is a freshly
// made channel, including through one or more layers of wrapping
// constructors (newOut() → make(chan int); newRelay() → &relay{out: newOut()}).
func (c *concGraph) retMakeFixpoint(m *Module) {
	for round := 0; round < 4; round++ {
		changed := false
		for _, mf := range m.byName {
			s := c.sums[mf]
			if s.retMake != 0 {
				continue
			}
			res := mf.decl.Type.Results
			if res == nil || len(res.List) != 1 || len(res.List[0].Names) > 1 {
				continue
			}
			ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
				if s.retMake != 0 {
					return false
				}
				if _, isLit := n.(*ast.FuncLit); isLit {
					return false
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				if k := c.exprMakeKind(m, mf, ret.Results[0]); k != 0 {
					s.retMake = k
					changed = true
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
}

// exprMakeKind classifies an expression as a channel construction: a direct
// make, or a call to a module function already known to return one.
func (c *concGraph) exprMakeKind(m *Module, mf *modFunc, e ast.Expr) int8 {
	if k := chanMakeKind(mf.pkg, e); k != 0 {
		return k
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if callee := m.calleeOf(mf.pkg, call); callee != nil {
			return c.sums[callee].retMake
		}
	}
	return 0
}

// --- pass 2: make sites --------------------------------------------------

// collectMakes binds channel constructions to classes: assignments, var
// specs, composite-literal fields, and package-level var declarations.
func (c *concGraph) collectMakes(m *Module) {
	record := func(class string, kind int8) {
		if class == "" || isParamClass(class) || kind == 0 {
			return
		}
		ci := c.info(class)
		if kind == chanUnbuffered {
			ci.unbuffered = true
		} else {
			ci.buffered = true
		}
	}
	for _, mf := range m.byName {
		p := mf.pkg
		ast.Inspect(mf.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					record(chanClassOf(p, mf, n.Lhs[i]), c.exprMakeKind(m, mf, rhs))
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, v := range n.Values {
					record(chanClassOf(p, mf, n.Names[i]), c.exprMakeKind(m, mf, v))
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if k := c.exprMakeKind(m, mf, kv.Value); k != 0 {
						record(compositeFieldClass(p, n, kv.Key), k)
					}
				}
			}
			return true
		})
	}
	// Package-level `var done = make(chan struct{})` lives outside any
	// function body; scan file declarations directly.
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Names) != len(vs.Values) {
						continue
					}
					for i, v := range vs.Values {
						record(chanClassOf(p, nil, vs.Names[i]), chanMakeKind(p, v))
					}
				}
			}
		}
	}
}

// --- pass 3: operation + blocking summaries ------------------------------

// opsFixpoint propagates channel facts and blocking descriptions up the
// call graph. ops only grow and blockDesc is set at most once per round, so
// with facts bounded by classes × kinds the loop converges; the round cap
// bounds pathological recursion.
func (c *concGraph) opsFixpoint(m *Module) {
	for round := 0; round < 12; round++ {
		changed := false
		for _, mf := range m.byName {
			if c.summarizeOps(m, mf) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func (c *concGraph) summarizeOps(m *Module, mf *modFunc) bool {
	s := c.sums[mf]
	opsBefore, blockBefore := len(s.ops), s.blockDesc
	p := mf.pkg
	comm := selectCommRanges(mf.decl.Body)
	addOp := func(kind chanOpKind, class, via string) {
		if class == "" {
			return
		}
		key := chanFactKey(kind, class)
		if _, ok := s.ops[key]; !ok {
			s.ops[key] = chanFact{kind: kind, class: class, via: via}
		}
	}
	setBlock := func(desc string) {
		if s.blockDesc == "" && desc != "" {
			s.blockDesc = desc
		}
	}
	w := &bodyWalker{m: m, p: p, f: mf}
	w.ev.onNode = func(n ast.Node, st *lockState) {
		switch n := n.(type) {
		case *ast.SendStmt:
			addOp(chSend, chanClassOf(p, mf, n.Chan), "")
			if !comm.contains(n.Pos()) {
				setBlock("a channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				addOp(chRecv, chanClassOf(p, mf, n.X), "")
				if !comm.contains(n.Pos()) {
					setBlock("a channel receive")
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				setBlock("a select with no default")
			}
		case *ast.CallExpr:
			if cls, isClose := closeArgClass(p, mf, n); isClose {
				addOp(chClose, cls, "")
				return
			}
			if desc, _ := blockingCallDesc(p, n); desc != "" {
				setBlock(desc)
			}
		}
	}
	w.ev.onCall = func(call *ast.CallExpr, callee *modFunc, st *lockState) {
		cs := c.sums[callee]
		for _, f := range cs.ops {
			via := callee.obj.Name()
			if f.via != "" {
				via += " → " + f.via
			}
			addOp(f.kind, substituteChanClass(p, mf, f.class, call), via)
		}
		if desc, _ := blockingCallDesc(p, call); desc != "" {
			setBlock(desc)
		} else {
			setBlock(cs.blockDesc)
		}
	}
	w.walkBody(mf.decl.Body, &lockState{})
	return len(s.ops) != opsBefore || s.blockDesc != blockBefore
}

// --- pass 4: concrete sites, spawns --------------------------------------

// collectSites walks every function (with its converged entry lock context)
// and records each channel operation site under its class, plus every `go`
// statement. Callee facts are expanded at the call site so a send hidden
// two helpers deep still registers against the caller's lock context.
func (c *concGraph) collectSites(m *Module) {
	for _, mf := range m.byName {
		mf := mf
		p := mf.pkg
		comm := selectCommRanges(mf.decl.Body)
		add := func(kind chanOpKind, class string, n ast.Node, st *lockState, via string, substituted bool) {
			if class == "" || isParamClass(class) {
				return
			}
			site := chanSite{
				mf:          mf,
				pos:         p.position(n),
				held:        heldClasses(st),
				via:         via,
				substituted: substituted,
				nonblocking: comm.contains(n.Pos()),
			}
			ci := c.info(class)
			switch kind {
			case chSend:
				ci.sends = append(ci.sends, site)
			case chRecv:
				ci.recvs = append(ci.recvs, site)
			case chClose:
				ci.closes = append(ci.closes, site)
			}
		}
		ev := walkEvents{
			onNode: func(n ast.Node, st *lockState) {
				switch n := n.(type) {
				case *ast.SendStmt:
					add(chSend, chanClassOf(p, mf, n.Chan), n, st, "", false)
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						add(chRecv, chanClassOf(p, mf, n.X), n, st, "", false)
					}
				case *ast.CallExpr:
					if cls, isClose := closeArgClass(p, mf, n); isClose {
						add(chClose, cls, n, st, "", false)
					}
				case *ast.GoStmt:
					c.spawns = append(c.spawns, spawnSite{mf: mf, g: n})
				}
			},
			onCall: func(call *ast.CallExpr, callee *modFunc, st *lockState) {
				for _, f := range c.sums[callee].ops {
					via := callee.obj.Name()
					if f.via != "" {
						via += " → " + f.via
					}
					add(f.kind, substituteChanClass(p, mf, f.class, call), call, st,
						via, isParamClass(f.class))
				}
			},
		}
		m.walkAllUnits(mf, m.entryState(mf), ev)
	}
}

func heldClasses(st *lockState) []string {
	var out []string
	for _, h := range st.held {
		if h.class != "" {
			out = append(out, h.class)
		}
	}
	return out
}

// indexStops records field and package-var classes with a close/Close/Stop/
// Shutdown call anywhere in the module (case-insensitive first letter: the
// transport's inbox queue is stopped by an unexported close method).
func (c *concGraph) indexStops(m *Module) {
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
			switch sel.Sel.Name {
			case "Close", "close", "Stop", "Shutdown":
			default:
				return true
			}
			switch x := ast.Unparen(sel.X).(type) {
			case *ast.SelectorExpr:
				if cls := fieldClass(p, x); cls != "" {
					c.stoppedFields[cls] = true
				}
			case *ast.Ident:
				if v, ok := p.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil &&
					v.Parent() == v.Pkg().Scope() {
					c.stoppedFields[v.Pkg().Path()+"."+v.Name()] = true
				}
			}
			return true
		})
	}
}

// --- select-communication ranges -----------------------------------------

// posRanges marks source intervals; contains is a linear scan (the sets are
// tiny — one entry per select communication clause).
type posRanges []posRange

type posRange struct{ lo, hi token.Pos }

func (rs posRanges) contains(p token.Pos) bool {
	for _, r := range rs {
		if r.lo <= p && p <= r.hi {
			return true
		}
	}
	return false
}

// selectCommRanges collects the source ranges of every select communication
// clause under root (closures included — ranges are positional). A send or
// receive there is guarded by the select: it fires only when ready, so it
// is not itself a blocking site (the select statement is).
func selectCommRanges(root ast.Node) posRanges {
	var out posRanges
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, cl := range sel.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
				out = append(out, posRange{cc.Comm.Pos(), cc.Comm.End()})
			}
		}
		return true
	})
	return out
}

// --- instance anchors ----------------------------------------------------

// instanceAnchor keys a channel expression by the object its base resolves
// to, so the CFG rules only relate operations on the same instance
// (close(src.done) then close(dst.done) share a class but not an anchor).
// Unanchorable expressions get a unique key from fallback, which can never
// collide: false negatives over false positives.
func instanceAnchor(p *Package, e ast.Expr, fallback token.Pos) string {
	root := ast.Unparen(e)
	for {
		switch x := root.(type) {
		case *ast.SelectorExpr:
			root = ast.Unparen(x.X)
		case *ast.StarExpr:
			root = ast.Unparen(x.X)
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			if obj != nil {
				return fmt.Sprintf("obj@%d", obj.Pos())
			}
			return fmt.Sprintf("pos@%d", fallback)
		default:
			return fmt.Sprintf("pos@%d", fallback)
		}
	}
}
