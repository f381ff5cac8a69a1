//go:build progcover

package repro

// The program-coverage gate: every statement this module keeps is there
// because a program runs it. TestProgCover builds every main package of this
// module and of benchmark/ (its own module, built from its own directory)
// with `go build -cover`, runs the fixed corpus (runCorpus) with GOCOVERDIR
// set, and merges the counters with `go tool covdata`. It fails on
//   - a function declared outside a _test.go file that no program runs;
//   - a block of a protocol package (protocolPkgs) that no program runs,
//     unless it is a refusal that the protocol packages' tests run: it ends
//     in an error return, a panic, a continue or a bare return (in a
//     function with results, a return of zero values alone);
//   - an entry of testdata/unreached.txt that excuses nothing.
//
// testdata/unreached.txt lists what is kept although no program runs it, one
// entry per line with a reason from the fixed set its header gives. The
// binaries, the counters and every file a corpus program writes go to
// t.TempDir(); the tree is never written. `make progcover` runs it
// (go test -tags progcover -count=1 -v -run ProgCover .), and prints each
// corpus step's wall time.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// protocolPkgs are the packages gated block by block; the rest of the
// module is gated function by function.
var protocolPkgs = []string{"session", "group", "engine", "ot", "crdt", "daemon", "fabric", "transport", "chunklog"}

// listReasons is the fixed set an entry's reason starts with.
var listReasons = []string{
	"test fake",
	"String method of a type that stays",
	"ROADMAP item",
	"reference implementation",
	"harness-only",
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(t *testing.T, dir string, args ...string) []byte {
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

// buildCovered builds every main package of the module at dir into bin,
// instrumented for every package that coverpkg matches; the main packages
// must be among them, or a Go 1.24 binary writes no counters at all. It
// returns the main packages' import paths.
func buildCovered(t *testing.T, dir, coverpkg, bin string) []string {
	t.Helper()
	mains := strings.Fields(string(goCmd(t, dir, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")))
	if len(mains) == 0 {
		t.Fatalf("no main packages under %s", dir)
	}
	goCmd(t, dir, append([]string{"build", "-cover", "-covermode=set", "-coverpkg=" + coverpkg, "-o", bin + string(filepath.Separator)}, mains...)...)
	return mains
}

// corpus runs the programs. Each step's wall time is logged, so a slow step
// can be named.
type corpus struct {
	t   *testing.T
	bin string
	env []string
}

func (c *corpus) step(name string, run func()) {
	start := time.Now()
	run()
	c.t.Logf("corpus %-40s %6.1fs", name, time.Since(start).Seconds())
}

// run runs one program from the repository root and requires exit status
// want; it returns the program's standard output.
func (c *corpus) run(want int, prog string, args ...string) []byte {
	c.t.Helper()
	cmd := exec.Command(filepath.Join(c.bin, prog), args...)
	cmd.Env = c.env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if got := cmd.ProcessState.ExitCode(); got != want {
		c.t.Fatalf("%s %s: exit %d (%v), want %d\n%s%s", prog, strings.Join(args, " "), got, err, want, stdout.Bytes(), stderr.Bytes())
	}
	return stdout.Bytes()
}

// script is one client's stdin: each line is written after a pause, so the
// session's traffic is the same from run to run.
type script struct {
	args  []string
	lines []string
}

// sessiond runs a daemon with args and one cscwctl per script against it,
// then stops the daemon with SIGINT, on which it exits 0 and writes its
// counters.
func (c *corpus) sessiond(args []string, scripts ...script) {
	c.t.Helper()
	d := exec.Command(filepath.Join(c.bin, "sessiond"), append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	d.Env = c.env
	var dErr bytes.Buffer
	d.Stderr = &dErr
	out, err := d.StdoutPipe()
	if err != nil {
		c.t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		c.t.Fatal(err)
	}
	banner, err := bufio.NewReader(out).ReadString('\n')
	m := regexp.MustCompile(`listening on (\S+) `).FindStringSubmatch(banner)
	if err != nil || m == nil {
		d.Process.Kill()
		d.Wait()
		c.t.Fatalf("sessiond %s: no banner (%v): %q\n%s", strings.Join(args, " "), err, banner, dErr.Bytes())
	}
	go io.Copy(io.Discard, out)

	var wg sync.WaitGroup
	errs := make([]error, len(scripts))
	for i, s := range scripts {
		cmd := exec.Command(filepath.Join(c.bin, "cscwctl"), append([]string{"-host", m[1]}, s.args...)...)
		cmd.Env = c.env
		stdin, err := cmd.StdinPipe()
		if err != nil {
			c.t.Fatal(err)
		}
		var cOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &cOut, &cOut
		if err := cmd.Start(); err != nil {
			c.t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, line := range s.lines {
				time.Sleep(100 * time.Millisecond)
				io.WriteString(stdin, line+"\n")
			}
			stdin.Close()
			if err := cmd.Wait(); err != nil {
				errs[i] = fmt.Errorf("cscwctl %s: %v\n%s", strings.Join(s.args, " "), err, cOut.Bytes())
			}
		}()
	}
	wg.Wait()
	d.Process.Signal(syscall.SIGINT)
	dWait := d.Wait()
	for _, err := range errs {
		if err != nil {
			c.t.Error(err)
		}
	}
	if dWait != nil {
		c.t.Fatalf("sessiond %s: %v\n%s", strings.Join(args, " "), dWait, dErr.Bytes())
	}
}

// runCorpus runs every program the repository calls, the way it calls them.
func runCorpus(t *testing.T, bin, cov, tmp string, mains []string) {
	c := &corpus{t: t, bin: bin, env: append(os.Environ(), "GOCOVERDIR="+cov)}
	c.step("experiments -seed 1", func() { c.run(0, "experiments", "-seed", "1") })
	c.step("examples", func() {
		for _, pkg := range mains {
			if rest, ok := strings.CutPrefix(pkg, "repro/examples/"); ok {
				c.run(0, rest)
			}
		}
	})
	c.step("cscwctl chaos, seeds 7 11 23", func() {
		list := c.run(0, "cscwctl", "chaos", "-list")
		n := 0
		for _, line := range strings.Split(string(list), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 || strings.HasPrefix(line, " ") {
				continue
			}
			want := 0
			if strings.HasSuffix(line, "[deliberately broken]") {
				want = 1
			}
			for _, seed := range []string{"7", "11", "23"} {
				c.run(want, "cscwctl", "chaos", "-scenario", f[0], "-seed", seed, "-v")
			}
			n++
		}
		if n == 0 {
			t.Fatalf("cscwctl chaos -list named no scenario:\n%s", list)
		}
	})
	c.step("cscwbench", func() { c.run(0, "cscwbench", "-date", "2026-01-01", "-out", filepath.Join(tmp, "bench.json")) })
	load := filepath.Join(tmp, "load")
	c.step("cscwload -quick", func() { c.run(0, "cscwload", "-quick", "-build", load, "-traces", load) })
	c.step("cscwload -trace 1 ot_1x4", func() {
		c.run(0, "cscwload", "-trace", "1", "-seconds", "1", "-workload", "ot_1x4", "-build", load, "-traces", load)
	})
	// The Makefile's and CI's calls, then the same on cscwlint's own
	// checked-in module with a finding, where the findings are printed.
	c.step("cscwlint", func() {
		c.run(0, "cscwlint", ".")
		c.run(0, "cscwlint", "benchmark")
		c.run(0, "cscwlint", "-format=github", ".")
		c.run(0, "cscwlint", "-format=sarif", ".")
		broken := filepath.Join("cmd", "cscwlint", "testdata", "broken")
		c.run(1, "cscwlint", broken, "clockbad")
		c.run(1, "cscwlint", "-format=github", broken)
		c.run(1, "cscwlint", "-format=sarif", broken)
	})
	edits := func(user string) []string {
		return []string{"/i 0 " + user, "/text", "hello from " + user, "/d 0", "/tick", "/poll", "/away", "/back", "/tick", "/text", "/leave"}
	}
	for _, e := range []string{"ot", "crdt"} {
		c.step("sessiond -engine "+e, func() {
			c.sessiond([]string{"-engine", e},
				script{[]string{"-user", "alice", "-doc", "d", "-engine", e}, edits("alice")},
				script{[]string{"-user", "bob", "-doc", "d", "-engine", e}, edits("bob")})
		})
	}
	c.step("sessiond -mode async -shards 2", func() {
		chat := []string{"hi", "/poll", "/away", "/back", "/poll", "/leave"}
		c.sessiond([]string{"-mode", "async", "-shards", "2", "-shard", "0", "-v"},
			script{[]string{"-user", "alice", "-doc", "notes"}, chat},
			script{[]string{"-user", "bob", "-doc", "notes", "-engine", "crdt"}, append([]string{"/i 0 b"}, chat...)})
	})
}

// block is one coverage block: a run of statements that execute together.
type block struct {
	file                     string // relative to the module root
	line0, col0, line1, col1 int
	stmts                    int
}

// readProfile adds each block of a text coverage profile to hit, true if it
// ran. Paths outside module repro's root (benchmark/ is one) are skipped.
func readProfile(t *testing.T, path string, hit map[block]bool) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		var b block
		var count int
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			t.Fatalf("%s: bad line %q", path, line)
		}
		if _, err := fmt.Sscanf(rest, "%d.%d,%d.%d %d %d", &b.line0, &b.col0, &b.line1, &b.col1, &b.stmts, &count); err != nil {
			t.Fatalf("%s: bad line %q: %v", path, line, err)
		}
		rel, ok := strings.CutPrefix(name, "repro/")
		if !ok || strings.HasPrefix(rel, "benchmark/") {
			continue
		}
		b.file = rel
		hit[b] = hit[b] || count > 0
	}
}

// fn is one declared function or function literal.
type fn struct {
	sym        string // the declaration's symbol: pkg.F, pkg.T.M or pkg.(*T).M
	pos        string // file:line of the declaration
	start, end int    // byte offsets of the body
	typ        *ast.FuncType
	body       *ast.BlockStmt
	decl       bool // a FuncDecl, not a literal
}

// srcFile is one parsed non-test file.
type srcFile struct {
	pkg    string // import path
	tf     *token.File
	src    []byte
	funcs  []*fn   // declarations first, then literals
	blocks []block // every block a profile names
}

// parseModule parses every non-test file of the module, keyed by its path
// relative to the module root.
func parseModule(t *testing.T) map[string]*srcFile {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(goCmd(t, ".", "list", "-json=ImportPath,Dir,GoFiles", "./...")))
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	out := make(map[string]*srcFile)
	for dec.More() {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, path)
			sf := &srcFile{pkg: p.ImportPath, tf: fset.File(f.Pos()), src: src}
			var lits []*fn
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				sym := p.ImportPath + "." + funcSymbol(fd)
				pos := fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
				if fd.Name.Name != "init" && fd.Name.Name != "_" {
					sf.funcs = append(sf.funcs, &fn{sym: sym, pos: pos, start: sf.tf.Offset(fd.Body.Lbrace), end: sf.tf.Offset(fd.Body.Rbrace), typ: fd.Type, body: fd.Body, decl: true})
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if n, ok := n.(*ast.FuncLit); ok {
						lits = append(lits, &fn{sym: sym, pos: pos, start: sf.tf.Offset(n.Body.Lbrace), end: sf.tf.Offset(n.Body.Rbrace), typ: n.Type, body: n.Body})
					}
					return true
				})
			}
			sf.funcs = append(sf.funcs, lits...)
			out[filepath.ToSlash(rel)] = sf
		}
	}
	return out
}

// funcSymbol is fd's symbol within its package with type parameters
// removed: F, T.M or (*T).M.
func funcSymbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
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
		return "(*" + name + ")." + fd.Name.Name
	}
	return name + "." + fd.Name.Name
}

// offsets are b's byte offsets in f.
func (f *srcFile) offsets(b block) (int, int) {
	at := func(line, col int) int { return int(f.tf.LineStart(line)) - f.tf.Base() + col - 1 }
	return at(b.line0, b.col0), at(b.line1, b.col1)
}

// enclosing returns the declaration a block lies in and the innermost
// function, declared or literal, around it.
func (f *srcFile) enclosing(start int) (decl, inner *fn) {
	for _, g := range f.funcs {
		if g.start <= start && start <= g.end {
			if g.decl {
				decl = g
			}
			if inner == nil || g.start >= inner.start {
				inner = g
			}
		}
	}
	return decl, inner
}

// blockText is the block's source without its line comments and with every
// run of white space made one space: the key a list entry names it by.
func (f *srcFile) blockText(b block) string {
	start, end := f.offsets(b)
	var words []string
	for _, line := range strings.Split(string(f.src[start:end]), "\n") {
		if i := strings.Index(line, "//"); i == 0 || i > 0 && (line[i-1] == ' ' || line[i-1] == '\t') {
			line = line[:i]
		}
		words = append(words, strings.Fields(line)...)
	}
	return strings.Join(words, " ")
}

// refusal reports whether b ends in a statement that refuses its input: an
// error return (a last result of type error that is not nil), a panic, a
// continue, or a bare return; in a function with results a bare return is
// a return of zero values alone.
func (f *srcFile) refusal(b block, inner *fn) bool {
	start, end := f.offsets(b)
	var last ast.Stmt
	ast.Inspect(inner.body, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return n != nil
		}
		p, e := f.tf.Offset(s.Pos()), f.tf.Offset(s.End())
		if p >= start && e <= end {
			if _, isBlock := s.(*ast.BlockStmt); !isBlock && (last == nil || e > f.tf.Offset(last.End())) {
				last = s
			}
		}
		return true
	})
	switch s := last.(type) {
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.ReturnStmt:
		res := inner.typ.Results
		if len(s.Results) == 0 || len(s.Results) < res.NumFields() {
			return len(s.Results) == 0 // bare, or a call's results passed on
		}
		last := s.Results[len(s.Results)-1]
		if id, ok := res.List[len(res.List)-1].Type.(*ast.Ident); ok && id.Name == "error" && !zero(last) {
			return true
		}
		for _, e := range s.Results {
			if !zero(e) {
				return false
			}
		}
		return true
	}
	return false
}

// zero reports whether e is a zero value: nil, false, 0, "" or an empty
// composite literal.
func zero(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Value == "0" || e.Value == `""`
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.Ident:
		return e.Name == "nil" || e.Name == "false"
	}
	return false
}

// entry is one line of testdata/unreached.txt: a function, or one block of
// a function named by its text.
type entry struct {
	line      int
	sym, text string
	reason    string
	used      bool // it excused a function or block no program runs
	found     bool // a block of its function has its text
}

// socketTiming starts the reason of the block entries whose run turns on
// socket timing: a program may run one in one pass and not the next, so
// such an entry is stale only when its text is gone.
const socketTiming = "ROADMAP item 11: socket timing"

// readList parses testdata/unreached.txt: after a header of # comments and
// blank lines, one "<symbol>  # <reason>" or "<symbol> | <block text>  #
// <reason>" per line.
func readList(t *testing.T, path string) []*entry {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []*entry
	seen := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, "  # ")
		sym, text, _ := strings.Cut(key, " | ")
		e := &entry{line: i + 1, sym: strings.TrimSpace(sym), text: strings.TrimSpace(text), reason: strings.TrimSpace(reason)}
		known := false
		for _, r := range listReasons {
			known = known || strings.HasPrefix(e.reason, r)
		}
		switch {
		case e.sym == "" || strings.Contains(e.sym, " "):
			t.Errorf("%s:%d: want \"<symbol>[ | <block text>]  # <reason>\", got %q", path, i+1, line)
		case !known:
			t.Errorf("%s:%d: reason %q is not one of the header's: %s", path, i+1, e.reason, strings.Join(listReasons, "; "))
		case seen[key]:
			t.Errorf("%s:%d: %s is listed twice", path, i+1, key)
		}
		seen[key] = true
		out = append(out, e)
	}
	return out
}

// protocolFile reports whether rel lies in a protocol package.
func protocolFile(rel string) bool {
	dir := filepath.ToSlash(filepath.Dir(rel))
	for _, p := range protocolPkgs {
		if dir == "internal/"+p {
			return true
		}
	}
	return false
}

// coverage is what the gate knows of one run: the parsed module, the blocks
// the programs ran and the blocks the protocol packages' tests ran.
type coverage struct {
	files        map[string]*srcFile
	prog, tested map[block]bool
}

// provedRefusal reports whether b is a refusal that a test runs.
func (c *coverage) provedRefusal(f *srcFile, b block) bool {
	if !c.tested[b] {
		return false
	}
	start, _ := f.offsets(b)
	_, inner := f.enclosing(start)
	return inner != nil && f.refusal(b, inner)
}

func TestProgCover(t *testing.T) {
	start := time.Now()
	tmp := t.TempDir()
	bin, cov := filepath.Join(tmp, "bin"), filepath.Join(tmp, "cov")
	for _, d := range []string{bin, cov} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	mains := append(buildCovered(t, ".", "./...", bin), buildCovered(t, "benchmark", "repro/...", bin)...)
	t.Logf("corpus %-40s %6.1fs", "build", time.Since(t0).Seconds())
	runCorpus(t, bin, cov, tmp, mains)
	if t.Failed() {
		return
	}
	progOut, testOut := filepath.Join(tmp, "programs.txt"), filepath.Join(tmp, "tests.txt")
	goCmd(t, ".", "tool", "covdata", "textfmt", "-i="+cov, "-o="+progOut)
	var pkgs []string
	for _, p := range protocolPkgs {
		pkgs = append(pkgs, "./internal/"+p)
	}
	t0 = time.Now()
	goCmd(t, ".", append([]string{"test", "-count=1", "-covermode=set", "-coverpkg=" + strings.Join(pkgs, ","), "-coverprofile=" + testOut}, pkgs...)...)
	t.Logf("corpus %-40s %6.1fs", "protocol package tests", time.Since(t0).Seconds())

	c := &coverage{files: parseModule(t), prog: make(map[block]bool), tested: make(map[block]bool)}
	readProfile(t, progOut, c.prog)
	readProfile(t, testOut, c.tested)
	seen := make(map[block]bool)
	for _, m := range []map[block]bool{c.prog, c.tested} {
		for b := range m {
			if f := c.files[b.file]; f != nil && !seen[b] {
				seen[b] = true
				f.blocks = append(f.blocks, b)
			}
		}
	}
	list := readList(t, filepath.Join("testdata", "unreached.txt"))
	bySym := make(map[string][]*entry)
	for _, e := range list {
		bySym[e.sym] = append(bySym[e.sym], e)
	}
	excuse := func(sym, text string) bool {
		for _, e := range bySym[sym] {
			if e.text == text {
				e.used = true
				return true
			}
		}
		return false
	}
	// A block entry names a block by its function and text.
	for _, f := range c.files {
		for _, b := range f.blocks {
			start, _ := f.offsets(b)
			if decl, _ := f.enclosing(start); decl != nil && b.stmts > 0 {
				for _, e := range bySym[decl.sym] {
					e.found = e.found || e.text != "" && e.text == f.blockText(b)
				}
			}
		}
	}

	// Per package: statements any program ran, of all it has.
	type tally struct{ ran, all int }
	perPkg := make(map[string]*tally)
	ranFunc := make(map[*fn]bool)
	for b, hit := range c.prog {
		f := c.files[b.file]
		if f == nil {
			continue
		}
		if perPkg[f.pkg] == nil {
			perPkg[f.pkg] = &tally{}
		}
		perPkg[f.pkg].all += b.stmts
		if hit {
			perPkg[f.pkg].ran += b.stmts
			start, _ := f.offsets(b)
			if decl, _ := f.enclosing(start); decl != nil {
				ranFunc[decl] = true
			}
		}
	}
	count := func(pkg string) string {
		if n := perPkg[pkg]; n != nil {
			return fmt.Sprintf("%s %d/%d", pkg, n.ran, n.all)
		}
		return pkg + " in no program"
	}

	var findings []string
	declared, unrunFunc := make(map[string]bool), make(map[*fn]bool)
	for _, f := range c.files {
		for _, g := range f.funcs {
			if !g.decl {
				continue
			}
			declared[g.sym] = true
			if ranFunc[g] {
				continue
			}
			unrunFunc[g] = true
			if excuse(g.sym, "") {
				continue
			}
			findings = append(findings, fmt.Sprintf("%s: %s: no program runs this function (%s)", g.pos, g.sym, count(f.pkg)))
		}
	}
	for rel, f := range c.files {
		if !protocolFile(rel) {
			continue
		}
		for _, b := range f.blocks {
			if c.prog[b] || b.stmts == 0 {
				continue
			}
			start, _ := f.offsets(b)
			decl, _ := f.enclosing(start)
			if decl == nil || unrunFunc[decl] {
				continue // reported, or excused, as a whole function
			}
			text := f.blockText(b)
			if excuse(decl.sym, text) || c.provedRefusal(f, b) {
				continue
			}
			findings = append(findings, fmt.Sprintf("%s:%d: %s | %s: no program runs this block (%s)", b.file, b.line0, decl.sym, text, count(f.pkg)))
		}
	}
	sort.Strings(findings)

	var stale []string
	for _, e := range list {
		switch {
		case !declared[e.sym]:
			stale = append(stale, fmt.Sprintf("line %d: %s is declared nowhere", e.line, e.sym))
		case e.used:
		case e.text == "":
			stale = append(stale, fmt.Sprintf("line %d: a program runs %s", e.line, e.sym))
		case !e.found:
			stale = append(stale, fmt.Sprintf("line %d: %s | %s: no block of that function has this text", e.line, e.sym, e.text))
		case !strings.HasPrefix(e.reason, socketTiming):
			stale = append(stale, fmt.Sprintf("line %d: a program runs %s | %s", e.line, e.sym, e.text))
		}
	}

	names := make([]string, 0, len(perPkg))
	for p := range perPkg {
		names = append(names, p)
	}
	sort.Strings(names)
	var report strings.Builder
	for _, p := range names {
		fmt.Fprintf(&report, "\n\t%-36s %5d/%-5d", p, perPkg[p].ran, perPkg[p].all)
	}
	t.Logf("statements a program ran, per package:%s", report.String())
	if len(findings) > 0 {
		t.Errorf("%d functions or protocol-package blocks that no program runs; delete each, test it if it is a refusal, or list it in testdata/unreached.txt with a reason:\n\t%s",
			len(findings), strings.Join(findings, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d stale entries in testdata/unreached.txt:\n\t%s", len(stale), strings.Join(stale, "\n\t"))
	}
	t.Logf("gate wall time %.1fs", time.Since(start).Seconds())
}
