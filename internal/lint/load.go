package lint

import (
	"bytes"
	"encoding/json"
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

// Package is one type-checked module package as the analyzers see it.
// Type information may be partial if the package (or a dependency) has
// type errors; analyzers tolerate nil lookups.
type Package struct {
	Path  string // import path, e.g. "roamsim/internal/netsim"
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Pkg   *types.Package
	Info  *types.Info

	// TypeErrs holds type-checker errors (reported, not fatal: the
	// analyzers still run on whatever was resolved).
	TypeErrs []error
}

// Loader type-checks packages from source against the export data one
// `go list -export` run built. Every import, module packages included,
// is read from that export data, so each package is checked on its own
// and exactly once. Objects imported by two packages are therefore
// distinct: a map across packages keys a function by its FullName.
type Loader struct {
	fset   *token.FileSet
	imp    types.Importer
	module []listed // the packages ./... matched, in import-path order
}

// listed is one package as `go list -json` reports it.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly                 bool
	Error                   *struct{ Err string }
}

// NewLoader lists the packages at and under dir (the module root, for
// the whole module) and all their dependencies with one `go list -e
// -export -deps`, which builds export data for each into the build
// cache. A failing go command is a load error, never a skipped package.
func NewLoader(dir string) (*Loader, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list in %s: %w: %s", dir, err, strings.TrimSpace(stderr.String()))
	}
	l := &Loader{fset: token.NewFileSet()}
	deps := map[string]listed{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: reading go list output: %w", err)
		}
		deps[p.ImportPath] = p
		if !p.DepOnly && len(p.GoFiles) > 0 {
			l.module = append(l.module, p)
		}
	}
	sort.Slice(l.module, func(i, j int) bool { return l.module[i].ImportPath < l.module[j].ImportPath })
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := deps[path]
		switch {
		case !ok:
			return nil, fmt.Errorf("lint: %s is not a dependency of the listed packages", path)
		case p.Export == "" && p.Error != nil:
			return nil, fmt.Errorf("lint: no export data for %s: %s", path, strings.TrimSpace(p.Error.Err))
		case p.Export == "":
			return nil, fmt.Errorf("lint: no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	return l, nil
}

// LoadAll type-checks every listed package, in import-path order.
func (l *Loader) LoadAll() ([]*Package, error) {
	out := make([]*Package, 0, len(l.module))
	for _, m := range l.module {
		p, err := l.check(m.ImportPath, m.Dir, m.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadDir type-checks the non-test Go files in dir as the package
// asPath. Golden packages under testdata load this way, under an import
// path chosen so a scope rule applies to them or not, and so does a
// mutant of a real package, under that package's own path.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	return l.check(asPath, dir, names)
}

// check parses the named files of dir and type-checks them as the
// package path. Type errors are collected, not fatal: analyzers run on
// partial information.
func (l *Loader) check(path, dir string, names []string) (*Package, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	p := &Package{Path: path, Fset: l.fset, Info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %w", err)
		}
		p.Files = append(p.Files, f)
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	p.Pkg, _ = conf.Check(path, l.fset, p.Files, p.Info)
	return p, nil
}
