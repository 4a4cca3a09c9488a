package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ROAM008 gojoin: every go statement in control-plane scope must have
// a visible join path. A goroutine nobody joins outlives the campaign
// that spawned it: it races fleet shutdown, holds a WAL or socket
// handle past Close, or mutates a dataset after it was sealed — and
// under the virtual clock an unjoined waiter either deadlocks
// quiescence or lets time advance without it. Recognized join
// evidence, per spawn:
//
//   - WaitGroup-style pairing: the spawned body (func literal, or a
//     module-local function/method) calls X.Done() — normally
//     deferred — and an X.Add(...) on the same counter reaches the go
//     statement on some path (forward may-analysis over the shared
//     CFG). The vclock.Virtual Add/Done waiter registry counts
//     exactly like sync.WaitGroup: it IS the fleet's join registry.
//   - Channel collector: the spawned closure sends on a channel that
//     the enclosing function also receives from (<-ch, range ch, or a
//     select case) — the receive is the join.
//   - An explicit //lint:allow gojoin <reason> for the rare sanctioned
//     fire-and-forget (e.g. a process-lifetime HTTP server in a cmd
//     main).
//
// The classic race gets its own diagnostic: wg.Add called INSIDE the
// spawned closure. By the time the goroutine runs Add, the parent may
// already have passed Wait — the canonical lost-signal bug — so the
// pairing is reported even though Add and Done are both present.
//
// "Reaches on some path" (may), not "dominates" (must), is deliberate:
// Add and the spawn are frequently guarded by the same condition
// computed under a lock (fleet.maybeReshard), which a path-insensitive
// must-analysis cannot correlate. Flow order still matters — an Add
// AFTER the go statement is no evidence — and the Add-inside-closure
// race is caught by its dedicated check above.
var gojoinAnalyzer = &Analyzer{
	Name: "gojoin",
	Code: "ROAM008",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { gojoinAnalyzer.Run = runGojoin }

func runGojoin(p *Package) []Diagnostic {
	declByFunc := map[*types.Func]*ast.FuncDecl{}
	for _, d := range funcDecls(p) {
		declByFunc[d.fn] = d.fd
	}
	var out []Diagnostic
	for _, f := range p.Files {
		if !inScope(controlPlane, p, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Analyze the declared body and every nested func literal as
			// separate enclosing scopes: a go statement's flow context is
			// its innermost enclosing function.
			for _, body := range enclosingBodies(fd.Body) {
				out = append(out, checkGoJoins(p, fd, body, declByFunc)...)
			}
		}
	}
	return out
}

// enclosingBodies returns body plus the body of every function literal
// nested anywhere inside it.
func enclosingBodies(body *ast.BlockStmt) []*ast.BlockStmt {
	out := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			out = append(out, lit.Body)
		}
		return true
	})
	return out
}

const factAddPrefix = "add:"

func checkGoJoins(p *Package, fd *ast.FuncDecl, body *ast.BlockStmt, declByFunc map[*types.Func]*ast.FuncDecl) []Diagnostic {
	var spawns []*ast.GoStmt
	inspectShallow(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			spawns = append(spawns, g)
		}
		return true
	})
	if len(spawns) == 0 {
		return nil
	}

	g := buildCFG(body)
	// Forward may: which X.Add(...) counters reach each point?
	reach := g.solve(true, false, func(n ast.Node, in facts) facts {
		inspectShallow(n, func(m ast.Node) bool {
			if base, ok := addCallBase(m); ok {
				in[factAddPrefix+base] = true
			}
			return true
		})
		return in
	})

	var out []Diagnostic
	for _, spawn := range spawns {
		// A go statement is a flow node of its own.
		out = append(out, checkOneSpawn(p, fd, body, reach[spawn], spawn, declByFunc)...)
	}
	return out
}

func checkOneSpawn(p *Package, fd *ast.FuncDecl, body *ast.BlockStmt,
	spawnFacts facts, spawn *ast.GoStmt, declByFunc map[*types.Func]*ast.FuncDecl) []Diagnostic {

	var out []Diagnostic

	// The spawned body: a func literal's own body, or the declaration
	// of a module-local function/method.
	var spawnedBody *ast.BlockStmt
	if lit, ok := spawn.Call.Fun.(*ast.FuncLit); ok {
		spawnedBody = lit.Body
	} else if fn := calleeFunc(p, spawn.Call); fn != nil {
		if decl := declByFunc[fn]; decl != nil {
			spawnedBody = decl.Body
		}
	}

	// Classic race: a sync.WaitGroup Add inside the spawned body.
	if spawnedBody != nil {
		inspectShallow(spawnedBody, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && isWaitGroup(p, sel.X) {
				out = append(out, diag(p, gojoinAnalyzer, call.Pos(),
					"%s.Add inside the spawned goroutine races Wait: by the time the goroutine runs, the parent may already be past Wait — call Add before the go statement",
					types.ExprString(sel.X)))
			}
			return true
		})
	}

	// The specific race diagnostic supersedes the generic no-join one:
	// the pairing exists, it is just fatally misplaced.
	if len(out) > 0 {
		return out
	}

	if hasJoinEvidence(body, spawnFacts, spawn, spawnedBody) {
		return out
	}
	out = append(out, diag(p, gojoinAnalyzer, spawn.Pos(),
		"go statement in %s has no join path: pair it with Add-before-spawn + deferred Done, collect it on a channel the caller receives from, or justify with //lint:allow gojoin",
		fd.Name.Name))
	return out
}

func hasJoinEvidence(body *ast.BlockStmt, spawnFacts facts, spawn *ast.GoStmt, spawnedBody *ast.BlockStmt) bool {
	// WaitGroup-style: Done in the spawned body + a reaching Add on a
	// matching counter.
	if spawnedBody != nil {
		for _, done := range doneCallBases(spawnedBody) {
			for fact := range spawnFacts {
				addBase, ok := strings.CutPrefix(fact, factAddPrefix)
				if ok && counterMatch(addBase, done) {
					return true
				}
			}
		}
	}

	// Channel collector: the spawned closure sends on a channel the
	// enclosing body receives from.
	if lit, ok := spawn.Call.Fun.(*ast.FuncLit); ok {
		for _, ch := range sentChannels(lit.Body) {
			if receivesFrom(body, lit, ch) {
				return true
			}
		}
	}
	return false
}

// addCallBase matches X.Add(...) spawn-accounting calls and returns
// the textual base X. Atomic counters also have Add methods; they
// never pair with a Done, so the looseness is harmless — matching
// happens against Done bases.
func addCallBase(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Add" {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// doneCallBases collects the textual bases of X.Done() calls (plain or
// deferred) in the spawned body.
func doneCallBases(body *ast.BlockStmt) []string {
	var out []string
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			out = append(out, types.ExprString(sel.X))
		}
		return true
	})
	return out
}

// counterMatch pairs an Add base with a Done base. Exact match first
// (wg / v); otherwise the final path component must agree (caller
// f.wg.Add vs callee method w.wg.Done — different receivers, same
// counter field).
func counterMatch(addBase, doneBase string) bool {
	if addBase == doneBase {
		return true
	}
	return lastComponent(addBase) == lastComponent(doneBase)
}

func lastComponent(s string) string {
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// sentChannels collects the textual channel expressions the closure
// sends on.
func sentChannels(body *ast.BlockStmt) []string {
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		if send, ok := n.(*ast.SendStmt); ok {
			out = append(out, types.ExprString(send.Chan))
		}
		return true
	})
	return out
}

// receivesFrom reports whether body — outside the spawned literal —
// receives from channel expression ch: <-ch, range ch, or a select
// case.
func receivesFrom(body *ast.BlockStmt, spawned *ast.FuncLit, ch string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if n == ast.Node(spawned) {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && types.ExprString(n.X) == ch {
				found = true
			}
		case *ast.RangeStmt:
			if types.ExprString(n.X) == ch {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroup reports whether e's type is sync.WaitGroup or a pointer
// to it.
func isWaitGroup(p *Package, e ast.Expr) bool {
	t := p.Info.Types[e].Type
	if t == nil {
		return false
	}
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	return isNamedPtr(t, "sync", "WaitGroup")
}
