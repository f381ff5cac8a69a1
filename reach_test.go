//go:build reach

package repro

// The reachability gate: every function this module declares outside a
// _test.go file must be in at least one program binary, or be listed in
// testdata/unreached.txt with a reason. The programs are every main package
// of this module and of benchmark/ (its own module, built from its own
// directory), built with inlining off so that a function the linker keeps
// shows up under its own symbol. A function no binary contains backs no
// experiment, example or chaos scenario; only its own tests run it. A listed
// function that a binary does contain is a stale entry and fails too. The
// binaries go to t.TempDir(); the tree is never written. `make reach` runs it
// (go test -tags reach -count=1 -run Reach .).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goOut runs the go command in dir and returns its standard output.
func goOut(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.Bytes())
	}
	return out
}

// buildMains builds every main package under dir's module into bin, one
// binary per package, and returns each binary's path keyed by import path.
func buildMains(t *testing.T, dir, bin string) map[string]string {
	t.Helper()
	mains := strings.Fields(string(goOut(t, dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")))
	if len(mains) == 0 {
		t.Fatalf("no main packages under %s", dir)
	}
	out := make(map[string]string, len(mains))
	for _, pkg := range mains {
		out[pkg] = filepath.Join(bin, strings.ReplaceAll(pkg, "/", "_"))
		goOut(t, dir, "build", "-gcflags=all=-l", "-o", out[pkg], pkg)
	}
	return out
}

// stripTypeArgs removes every bracketed type-argument list from a symbol,
// so that chunklog.(*Log[go.shape.struct { … }]).Append reads as
// chunklog.(*Log).Append, the name its declaration has.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// textSymbols adds to have every function symbol in the binary at path. A
// main package's symbols are named main.* in its own binary; they are
// recorded under pkg, the package's import path.
func textSymbols(t *testing.T, path, pkg string, have map[string]bool) {
	t.Helper()
	out := goOut(t, ".", "tool", "nm", path)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		// "  addr T name", where name may itself contain spaces.
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := stripTypeArgs(f[2])
		if rest, ok := strings.CutPrefix(name, "main."); ok {
			name = pkg + "." + rest
		}
		have[name] = true
	}
}

// declared returns the symbol of every function and method declared in a
// non-test file of the module at dir, mapped to its position.
func declared(t *testing.T, dir string) map[string]string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(goOut(t, dir, "list", "-json=ImportPath,Dir,GoFiles", "./...")))
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := make(map[string]string)
	for dec.More() {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		for _, name := range p.GoFiles {
			file := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				rel, _ := filepath.Rel(root, file)
				out[p.ImportPath+"."+funcSymbol(fn)] = fmt.Sprintf("%s:%d", rel, fset.Position(fn.Pos()).Line)
			}
		}
	}
	return out
}

// funcSymbol is fn's symbol within its package, as the linker names it
// with type arguments removed: F, T.M or (*T).M.
func funcSymbol(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}

// readAllowList parses testdata/unreached.txt: one "<symbol>  # <reason>"
// per line, after a header of # comments and blank lines.
func readAllowList(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "#")
		sym, reason = strings.TrimSpace(sym), strings.TrimSpace(reason)
		if sym == "" || reason == "" || strings.Contains(sym, " ") {
			t.Errorf("%s:%d: want \"<symbol>  # <reason>\", got %q", path, i+1, line)
			continue
		}
		if _, dup := out[sym]; dup {
			t.Errorf("%s:%d: %s is listed twice", path, i+1, sym)
		}
		out[sym] = reason
	}
	return out
}

func TestReach(t *testing.T) {
	bin := t.TempDir()
	have := make(map[string]bool)
	for _, dir := range []string{".", "benchmark"} {
		for pkg, path := range buildMains(t, dir, bin) {
			textSymbols(t, path, pkg, have)
		}
	}
	funcs := declared(t, ".")
	allowed := readAllowList(t, filepath.Join("testdata", "unreached.txt"))

	var unreached, stale []string
	for sym, pos := range funcs {
		if !have[sym] && allowed[sym] == "" {
			unreached = append(unreached, fmt.Sprintf("%s: %s", pos, sym))
		}
	}
	for sym := range allowed {
		switch {
		case funcs[sym] == "":
			stale = append(stale, sym+" is declared nowhere")
		case have[sym]:
			stale = append(stale, sym+" is in a program binary")
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	if len(unreached) > 0 {
		t.Errorf("%d functions are in no program binary; delete them, or list each in testdata/unreached.txt with a reason:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d stale entries in testdata/unreached.txt:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
}
