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
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { fsyncrenameAnalyzer.Run = runFsyncrename }

const (
	factFileSynced = "filesynced"
	factDirSync    = "dirsync"
)

func runFsyncrename(p *Package) []Diagnostic {
	syncs := syncSummaries(p)
	var out []Diagnostic
	for _, f := range p.Files {
		if !inScope(durable, p, f) {
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
			out = append(out, checkRenameProtocol(p, fd, renames, syncs)...)
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

func checkRenameProtocol(p *Package, fd *ast.FuncDecl, renames []*ast.CallExpr, syncs summary) []Diagnostic {
	g := buildCFG(fd.Body)
	dirOpened := dirHandles(p, fd)

	// Forward must: has a file fsync happened on every path here?
	before := g.solve(true, true, func(n ast.Node, in facts) facts {
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isFileSyncCall(p, call) || syncs.of(p, call)[factFileSynced] {
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
					(isDirSyncCall(p, call, dirOpened) || syncs.of(p, call)[factDirSync]) {
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
			if isDirSyncCall(p, call, dirOpened) || syncs.of(p, call)[factDirSync] {
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

// containingNode finds the innermost flow node (statement or control
// expression) that holds n, or n itself if it is one; nil if none does.
// Innermost matters inside a range loop, whose RangeStmt node spans its
// body's statements too.
func containingNode(g *funcCFG, n ast.Node) ast.Node {
	var best ast.Node
	for _, b := range g.blocks {
		for _, m := range b.nodes {
			if m.Pos() <= n.Pos() && n.End() <= m.End() && (best == nil || m.End()-m.Pos() < best.End()-best.Pos()) {
				best = m
			}
		}
	}
	return best
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

// syncSummaries summarizes this package's functions by the syncs their
// bodies make, transitively: factFileSynced for a Sync on an *os.File,
// factDirSync for a Sync on a handle opened with os.Open (the fsyncDir
// shape). A helper can have both; fsyncDir does.
func syncSummaries(p *Package) summary {
	return summarize(funcDecls(p), func(d funcDecl) (out []string) {
		dirOpened := dirHandles(p, d.fd)
		walkNoGo(d.fd.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if isFileSyncCall(p, call) {
					out = append(out, factFileSynced)
				}
				if isDirSyncCall(p, call, dirOpened) {
					out = append(out, factDirSync)
				}
			}
		})
		return out
	})
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
