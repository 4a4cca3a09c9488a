package lint

import (
	"go/ast"
	"go/types"
)

// ROAM006 fsyncrename: in durability-scoped packages (the WAL sink,
// the shard control plane, and fleet's reshard/manifest path), an
// os.Rename whose target is a committed artifact must follow the full
// crash-safe protocol PR 9 established for WAL compaction:
//
//	write tmp → File.Sync → os.Rename → fsync(dir)
//
// A rename without the preceding file fsync can commit a name that
// points at unwritten bytes; a rename without the following directory
// fsync can vanish entirely on power loss — the classic
// "rename-is-not-a-commit-point" bug. Both halves are flow checks over
// the shared CFG engine:
//
//   - dominated-by-sync (forward must): on every path from function
//     entry to the rename, some *os.File.Sync happened — directly or
//     through a module-local helper whose body (transitively) syncs a
//     file, e.g. walsink's rewrite.
//   - followed-by-dirfsync (backward must): on every path from the
//     rename to a successful return, a directory fsync happens —
//     directly (Sync on a handle opened with os.Open) or through a
//     module-local helper like fsyncDir. Paths that bail with a
//     non-nil error (return err, return fmt.Errorf(...), panic) are
//     exempt: a failed commit needs no durability barrier.
//
// Precision notes, so findings stay explainable: the sync fact is not
// tracked per file handle — "some file sync on every path" is the
// contract, and the golden suite pins exactly that; a return whose
// error result is itself a fresh call (e.g. `return os.Rename(...)`)
// is NOT a bail, because its success case is a commit with no barrier
// behind it.
var fsyncrenameAnalyzer = &Analyzer{
	Name: "fsyncrename",
	Code: "ROAM006",
	Doc:  "os.Rename commits in durability-scoped packages are fenced by File.Sync before and a directory fsync after",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { fsyncrenameAnalyzer.Run = runFsyncrename }

const (
	factFileSynced = "filesynced"
	factDirSync    = "dirsync"
)

func runFsyncrename(p *Package) []Diagnostic {
	fileSyncers, dirSyncers := classifySyncHelpers(p)
	var out []Diagnostic
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		if !durabilityScoped(p, filename) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			renames := renameCalls(p, fd.Body)
			if len(renames) == 0 {
				continue
			}
			out = append(out, checkRenameProtocol(p, fd, renames, fileSyncers, dirSyncers)...)
		}
	}
	return out
}

// renameCalls collects every os.Rename call in body, excluding nested
// function literals (they are separate flow universes).
func renameCalls(p *Package, body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	inspectShallow(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPkgCall(p, call, "os", "Rename") {
			out = append(out, call)
		}
		return true
	})
	return out
}

func checkRenameProtocol(p *Package, fd *ast.FuncDecl, renames []*ast.CallExpr,
	fileSyncers, dirSyncers map[*types.Func]bool) []Diagnostic {

	g := buildCFG(fd.Body)
	dirOpened := dirHandles(p, fd)

	// Forward must: has a file fsync happened on every path here?
	before := g.solve(true, true, func(n ast.Node, in facts) facts {
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isFileSyncCall(p, call) || fileSyncers[calleeFunc(p, call)] {
				in[factFileSynced] = true
			}
			return true
		})
		return in
	})

	// Backward must: will a directory fsync happen on every successful
	// path from here? Error bails and panics satisfy the requirement.
	after := g.solve(false, true, func(n ast.Node, in facts) facts {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			// A dirsync inside the return expression itself (e.g.
			// `return fsyncDir(dir)`) runs before the return commits.
			synced := false
			inspectShallow(ret, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok &&
					(isDirSyncCall(p, call, dirOpened) || dirSyncers[calleeFunc(p, call)]) {
					synced = true
				}
				return true
			})
			if synced || errorBail(p, ret) {
				in[factDirSync] = true
			} else {
				delete(in, factDirSync)
			}
			return in
		}
		bail := false
		gen := false
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isDirSyncCall(p, call, dirOpened) || dirSyncers[calleeFunc(p, call)] {
				gen = true
			}
			if isTerminalCall(call) {
				bail = true
			}
			return true
		})
		if gen || bail {
			in[factDirSync] = true
		}
		return in
	})

	// Map each rename to the statement-level node holding its facts.
	var out []Diagnostic
	for _, rename := range renames {
		node := containingNode(g, rename)
		if node == nil {
			continue // unreachable code: no flow information, no finding
		}
		if f, ok := before[node]; ok && !f[factFileSynced] {
			out = append(out, diag(p, fsyncrenameAnalyzer, rename.Pos(),
				"os.Rename in %s is not dominated by a File.Sync: a crash can commit a name pointing at unwritten bytes (tmp→fsync→rename→fsyncDir)",
				fd.Name.Name))
		}
		if f, ok := after[node]; ok && !f[factDirSync] {
			out = append(out, diag(p, fsyncrenameAnalyzer, rename.Pos(),
				"os.Rename in %s is not followed on every successful path by a directory fsync: the rename itself can vanish on power loss (tmp→fsync→rename→fsyncDir)",
				fd.Name.Name))
		}
	}
	return out
}

// containingNode finds the CFG node (statement or control expression)
// that contains expr.
func containingNode(g *funcCFG, expr ast.Expr) ast.Node {
	for _, b := range g.blocks {
		for _, n := range b.nodes {
			found := false
			inspectShallow(n, func(m ast.Node) bool {
				if m == ast.Node(expr) {
					found = true
				}
				return !found
			})
			if found {
				return n
			}
		}
	}
	return nil
}

// isFileSyncCall reports whether call is X.Sync() where X is an
// *os.File.
func isFileSyncCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	return isNamedPtr(p.Info.Types[sel.X].Type, "os", "File")
}

// dirHandles returns the set of variables in fd assigned from os.Open
// — in the durability packages os.Open is only used to get a directory
// handle for fsync (files are created with os.OpenFile/os.Create).
func dirHandles(p *Package, fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	inspectShallow(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isPkgCall(p, call, "os", "Open") {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			if v, ok := p.Info.Defs[id].(*types.Var); ok {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// isDirSyncCall reports whether call is X.Sync() on a handle opened
// with os.Open in the same function (the inline directory-fsync
// idiom).
func isDirSyncCall(p *Package, call *ast.CallExpr, dirOpened map[*types.Var]bool) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sync" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := p.Info.Uses[id].(*types.Var)
	return v != nil && dirOpened[v]
}

// classifySyncHelpers partitions this package's functions into file
// syncers (the body, transitively, calls Sync on an *os.File) and dir
// syncers (the body, transitively, syncs a handle opened with os.Open
// — the fsyncDir shape). A helper can be both; fsyncDir is.
func classifySyncHelpers(p *Package) (fileSyncers, dirSyncers map[*types.Func]bool) {
	fileSyncers = map[*types.Func]bool{}
	dirSyncers = map[*types.Func]bool{}
	decls := funcDecls(p)
	for _, d := range decls {
		dirOpened := dirHandles(p, d.fd)
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isFileSyncCall(p, call) {
				fileSyncers[d.fn] = true
			}
			if isDirSyncCall(p, call, dirOpened) {
				dirSyncers[d.fn] = true
			}
			return true
		})
	}
	// Propagate through module-local calls to a fixed point (helpers
	// that delegate to helpers).
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			ast.Inspect(d.fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !fileSyncers[d.fn] && fileSyncers[calleeFunc(p, call)] {
					fileSyncers[d.fn] = true
					changed = true
				}
				if !dirSyncers[d.fn] && dirSyncers[calleeFunc(p, call)] {
					dirSyncers[d.fn] = true
					changed = true
				}
				return true
			})
		}
	}
	return fileSyncers, dirSyncers
}

// errorBail reports whether ret returns a non-nil error that was
// already in hand: an identifier (err, ErrFoo), a selector
// (pkg.ErrFoo), or a fresh wrap via fmt.Errorf / errors.New /
// errors.Join. A call like `return os.Rename(...)` is NOT a bail —
// its success case is a commit path.
func errorBail(p *Package, ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		tv, ok := p.Info.Types[r]
		if !ok || tv.Type == nil || tv.IsNil() {
			continue
		}
		if !isErrorType(tv.Type) {
			continue
		}
		switch e := r.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			return true
		case *ast.CallExpr:
			if isPkgCall(p, e, "fmt", "Errorf") || isPkgCall(p, e, "errors", "New") || isPkgCall(p, e, "errors", "Join") {
				return true
			}
		}
	}
	return false
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}
