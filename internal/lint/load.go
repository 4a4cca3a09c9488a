package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package as the analyzers see it.
// Type information may be partial if the package (or a dependency) has
// type errors; analyzers tolerate nil lookups.
type Package struct {
	Path  string // import path, e.g. "roamsim/internal/netsim"
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files only
	Pkg   *types.Package
	Info  *types.Info

	// TypeErrs holds type-checker errors (reported, not fatal: the
	// analyzers still run on whatever was resolved).
	TypeErrs []error
}

// Loader loads and type-checks packages of one module from source.
// Module-local imports resolve recursively through the loader itself;
// everything else (the standard library — go.mod has no external
// dependencies) through export data that `go list -export` builds.
type Loader struct {
	ModRoot string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles (invalid Go, but a cycle in
	// a broken tree must error, not hang).
	loading map[string]bool
}

// NewLoader locates the module root at or above dir and reads the
// module path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModRoot: root,
		ModPath: modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "gc", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// modulePath extracts the module path from the first "module" line of a
// go.mod file. The module has no dependencies, so a full modfile parser
// is not needed.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// LoadAll discovers every package directory in the module (skipping
// testdata, vendor, and hidden directories) and loads each one. The
// result is sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "bin") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		p, err := l.Load(l.pathForDir(dir))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func (l *Loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the module package with the given import
// path, loading its module-local dependencies first. Results are
// memoized, so a package shared by many importers is checked once.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the single package in dir under the
// import path asPath. This is also the entry point for golden-test
// packages under testdata, which are loaded with a curated import path
// so scope rules (deterministic package or not) can be exercised.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	if p, ok := l.pkgs[asPath]; ok {
		return p, nil
	}
	if l.loading[asPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", asPath)
	}
	l.loading[asPath] = true
	defer func() { l.loading[asPath] = false }()

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	for _, fname := range names {
		f, err := parser.ParseFile(l.fset, fname, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", fname, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p := &Package{Path: asPath, Dir: dir, Fset: l.fset, Files: files, Info: info}
	conf := types.Config{
		Importer: &chainImporter{loader: l},
		Error:    func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	// Type errors are collected, not fatal: analyzers run on partial info.
	p.Pkg, _ = conf.Check(asPath, l.fset, files, info)
	l.pkgs[asPath] = p
	return p, nil
}

// chainImporter resolves module-local imports through the Loader and
// everything else through export data; missing export data is a type
// error of the importing package (roamvet exits 2), never a skip.
type chainImporter struct {
	loader *Loader
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	l := c.loader
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if p.Pkg == nil {
			return nil, fmt.Errorf("lint: %s failed to type-check", path)
		}
		return p.Pkg, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		err = fmt.Errorf("lint: no export data for %s (the loader needs the go command and a writable GOCACHE): %w", path, err)
	}
	return p, err
}
