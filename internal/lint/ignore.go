package lint

import (
	"go/token"
	"strings"
)

// ignoreKey identifies a (file, line, rule) suppression site.
type ignoreKey struct {
	file string
	line int
	rule string
}

// ignoreSet records where //lint:ignore directives apply. A directive
// suppresses diagnostics of its rule on its own line and on the next line
// (the usual placement is a comment line directly above the statement).
// Each directive remembers whether it suppressed anything: one that
// outlived its finding would silently hide the next finding of its rule
// to land there, so unused reports it.
type ignoreSet struct {
	at   map[ignoreKey]*ignoreDirective
	list []*ignoreDirective // source order
}

type ignoreDirective struct {
	pos  token.Position
	rule string
	used bool
}

func (s *ignoreSet) covers(d Diagnostic) bool {
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if dir := s.at[ignoreKey{d.Pos.Filename, line, d.Rule}]; dir != nil {
			dir.used = true
			return true
		}
	}
	return false
}

// unused returns a lint-directive diagnostic for every directive that
// suppressed no finding.
func (s *ignoreSet) unused() []Diagnostic {
	var out []Diagnostic
	for _, dir := range s.list {
		if !dir.used {
			out = append(out, Diagnostic{
				Pos:     dir.pos,
				Rule:    "lint-directive",
				Message: "//lint:ignore " + dir.rule + " suppresses no finding; delete it",
			})
		}
	}
	return out
}

// collect adds a package's //lint:ignore directives to the set.
// Malformed directives — a missing reason, or an unknown rule name — are
// themselves reported as lint-directive diagnostics so a typo cannot
// silently disable a gate.
func (s *ignoreSet) collect(p *Package, rules map[string]bool) []Diagnostic {
	var bad []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:  pos,
						Rule: "lint-directive",
						Message: "malformed //lint:ignore: need a rule name and a reason " +
							"(//lint:ignore <rule> <reason>)",
					})
					continue
				}
				rule := fields[0]
				if !rules[rule] {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Rule:    "lint-directive",
						Message: "//lint:ignore names unknown rule " + rule,
					})
					continue
				}
				dir := &ignoreDirective{pos: pos, rule: rule}
				s.at[ignoreKey{pos.Filename, pos.Line, rule}] = dir
				s.list = append(s.list, dir)
			}
		}
	}
	return bad
}
