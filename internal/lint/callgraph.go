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

// The channel half of the concurrency call graph (DESIGN.md §6). Each
// function's summary (modFunc, module.go) carries its channel operations,
// its first blocking behaviour and whether it constructs a channel, with
// $param:i placeholders substituted at call sites; this file names channel
// classes and, once the summaries have converged, builds the module's
// per-class index of make/send/recv/close sites with the lock context each
// site runs under. chan-proto and block-lock are views over that index.

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

// channel returns class's index entry, creating it on first use.
func (m *Module) channel(class string) *chanInfo {
	ci := m.chans[class]
	if ci == nil {
		ci = &chanInfo{}
		m.chans[class] = ci
	}
	return ci
}

// sortedChanClasses returns the class keys in deterministic order.
func (m *Module) sortedChanClasses() []string {
	out := make([]string, 0, len(m.chans))
	for k := range m.chans {
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

// chanShort renders a channel class for diagnostics: "daemon.Participant.acked".
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

// exprMakeKind classifies an expression as a channel construction: a direct
// make, or a call to a module function known to return one.
func (m *Module) exprMakeKind(mf *modFunc, e ast.Expr) int8 {
	if k := chanMakeKind(mf.pkg, e); k != 0 {
		return k
	}
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if callee := m.calleeOf(mf.pkg, call); callee != nil {
			return callee.retMake
		}
	}
	return 0
}

// --- channel indexes -----------------------------------------------------

// collectMakes binds channel constructions to classes: assignments, var
// specs, composite-literal fields, and package-level var declarations.
func (m *Module) collectMakes() {
	record := func(class string, kind int8) {
		if class == "" || isParamClass(class) || kind == 0 {
			return
		}
		ci := m.channel(class)
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
					record(chanClassOf(p, mf, n.Lhs[i]), m.exprMakeKind(mf, rhs))
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, v := range n.Values {
					record(chanClassOf(p, mf, n.Names[i]), m.exprMakeKind(mf, v))
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if k := m.exprMakeKind(mf, kv.Value); k != 0 {
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

// collectSites walks every function (with its converged entry lock context)
// and records each channel operation site under its class. Callee facts are
// expanded at the call site so a send hidden two helpers deep still
// registers against the caller's lock context.
func (m *Module) collectSites() {
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
			ci := m.channel(class)
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
				}
			},
			onCall: func(call *ast.CallExpr, callee *modFunc, st *lockState) {
				for _, f := range callee.ops {
					add(f.kind, substituteChanClass(p, mf, f.class, call), call, st,
						viaCall(callee, f.via), isParamClass(f.class))
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

// compositeFieldClass names the field a composite-literal element
// initializes: "pkgpath.Type.field".
func compositeFieldClass(p *Package, lit *ast.CompositeLit, key ast.Expr) string {
	tv, ok := p.Info.Types[lit]
	if !ok || tv.Type == nil || key == nil {
		return ""
	}
	t := tv.Type
	if ptr, pok := t.Underlying().(*types.Pointer); pok {
		t = ptr.Elem()
	}
	named, nok := t.(*types.Named)
	if !nok || named.Obj().Pkg() == nil {
		return ""
	}
	id, iok := key.(*ast.Ident)
	if !iok {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + id.Name
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
