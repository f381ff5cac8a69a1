package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks the packages of one module. The go command
// says what the module is and which files make each of its packages; those
// are type-checked from source, and everything they import from outside the
// module is read from the compiler's export data. Only non-test files are
// loaded: tests legitimately drive real time and real transports, so the
// invariants apply to the packages themselves.
type Loader struct {
	ModuleRoot string
	Fset       *token.FileSet

	listed map[string]*listedPackage // the module's packages, by import path
	std    types.Importer            // export data for every package
	loaded map[string]*Package       // by import path
	// exportOnly makes every import, the module's own packages included,
	// come from export data (loadMatching).
	exportOnly bool
}

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// NewLoader asks the go command for the module containing dir and for every
// package that module builds with.
func NewLoader(dir string) (*Loader, error) {
	// `go list -m all` names the main module first; outside a module it
	// fails with the go command's own message.
	out, err := goList(dir, "-m", "-json=Dir", "all")
	if err != nil {
		return nil, err
	}
	var mod struct{ Dir string }
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&mod); err != nil {
		return nil, fmt.Errorf("lint: go list -m: %w", err)
	}
	out, err = goList(mod.Dir, "-e", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Module,Error", "./...")
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleRoot: mod.Dir,
		Fset:       token.NewFileSet(),
		listed:     make(map[string]*listedPackage),
		loaded:     make(map[string]*Package),
	}
	deps := make(map[string]*listedPackage)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("lint: go list: %w", err)
		}
		deps[p.ImportPath] = p
		if p.Module != nil && p.Module.Main {
			l.listed[p.ImportPath] = p
		}
	}
	l.std = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := deps[path]
		if !ok {
			return nil, fmt.Errorf("%s is not a dependency of the module", path)
		}
		if p.Error != nil {
			return nil, errors.New(p.Error.Err)
		}
		return os.Open(p.Export)
	})
	return l, nil
}

// goList runs `go list` in dir; a failure carries the go command's message.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return nil, fmt.Errorf("lint: %s", bytes.TrimSpace(exit.Stderr))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	return out, nil
}

// LoadModule loads every package of the module in import-path order.
func (l *Loader) LoadModule() ([]*Package, error) {
	return l.loadAll(l.paths(""))
}

// loadMatching loads, in import-path order, the module's packages whose
// import path contains filter, each from source with every import read from
// export data. A filter that matches none is an error, found before anything
// is type-checked.
func (l *Loader) loadMatching(filter string) ([]*Package, error) {
	paths := l.paths(filter)
	if len(paths) == 0 {
		return nil, fmt.Errorf("lint: no loaded package matches %q", filter)
	}
	l.exportOnly = true
	return l.loadAll(paths)
}

// paths returns the sorted import paths of the module's packages that
// contain filter.
func (l *Loader) paths(filter string) []string {
	var paths []string
	for path := range l.listed {
		if strings.Contains(path, filter) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	return paths
}

func (l *Loader) loadAll(paths []string) ([]*Package, error) {
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// load parses and type-checks one of the module's packages, memoized by
// path.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	lp := l.listed[path]
	if lp.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", path, strings.TrimSpace(lp.Error.Err))
	}
	files := make([]string, len(lp.GoFiles))
	for i, name := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, name)
	}
	return l.check(path, files)
}

// check parses files and type-checks them as the package path.
func (l *Loader) check(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.checkFiles(path, files)
}

// checkFiles type-checks parsed files as the package path.
func (l *Loader) checkFiles(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.loaded[path] = p
	return p, nil
}

// Import implements types.Importer: the module's own packages are loaded
// from source (unless exportOnly), everything else from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if _, ok := l.listed[path]; !ok || l.exportOnly {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}
