package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// ROAM005 guardedfield: a struct field whose declaration carries a
// `// guarded by <mu>` comment must only be touched in functions that
// visibly acquire that mutex on the same base expression:
//
//	type Runner struct {
//		mu     sync.Mutex
//		traces []TraceObs // guarded by mu
//	}
//
//	r.mu.Lock()          // evidence: r.mu.Lock() / r.mu.RLock()
//	r.traces = append(...) // ok — same base "r"
//
// The guard may be a dotted path for delegated locks — a field guarded
// by a mutex owned by another struct the field's struct points at:
//
//	type Ctx struct {
//		v   *Virtual
//		err error // guarded by v.mu
//	}
//
//	c.v.mu.Lock()  // evidence for accesses to c.err
//
// The check is intra-function and intentionally coarse — it proves
// hygiene, not full lock-order correctness (that is the race
// detector's job). Accesses are exempt when:
//
//   - the function acquires <base>.<mu>.Lock() or .RLock() anywhere in
//     its body (including deferred unlock idioms),
//   - the base variable was constructed in the same function (a value
//     under construction is not yet shared),
//   - the function name ends in "Locked" (the documented convention
//     for callees that require the caller to hold the lock).
var guardedfieldAnalyzer = &Analyzer{
	Name: "guardedfield",
	Code: "ROAM005",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { guardedfieldAnalyzer.Run = runGuardedfield }

var guardedRe = regexp.MustCompile(`guarded by (\w+(?:\.\w+)*)`)

func runGuardedfield(p *Package) []Diagnostic {
	guarded := collectGuardedFields(p)
	if len(guarded) == 0 {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			out = append(out, guardedAccesses(p, fd, guarded)...)
		}
	}
	return out
}

// collectGuardedFields maps each annotated field object to the name of
// its guarding mutex field.
func collectGuardedFields(p *Package) map[*types.Var]string {
	guarded := map[*types.Var]string{}
	inspect(p, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			mu := guardComment(field)
			if mu == "" {
				continue
			}
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					guarded[v] = mu
				}
			}
		}
		return true
	})
	return guarded
}

func guardComment(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func guardedAccesses(p *Package, fd *ast.FuncDecl, guarded map[*types.Var]string) []Diagnostic {
	locks := heldLocks(p, fd)
	constructed := constructedLocals(p, fd)
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selInfo := p.Info.Selections[sel]
		if selInfo == nil || selInfo.Kind() != types.FieldVal {
			return true
		}
		field, ok := selInfo.Obj().(*types.Var)
		if !ok {
			return true
		}
		mu, isGuarded := guarded[field]
		if !isGuarded {
			return true
		}
		base := types.ExprString(sel.X)
		if locks[base+"."+mu] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if v, _ := p.Info.Uses[id].(*types.Var); v != nil && constructed[v] {
				return true
			}
		}
		out = append(out, diag(p, guardedfieldAnalyzer, sel.Pos(),
			"field %s.%s is guarded by %q but %s does not acquire %s.%s",
			base, field.Name(), mu, fd.Name.Name, base, mu))
		return true
	})
	return out
}

// heldLocks collects the set of "<base>.<mu>" strings for which the
// function calls Lock or RLock anywhere in its body.
func heldLocks(p *Package, fd *ast.FuncDecl) map[string]bool {
	locks := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		locks[types.ExprString(sel.X)] = true
		return true
	})
	return locks
}

// constructedLocals returns local variables initialized in this
// function from a composite literal (x := T{...} or x := &T{...}) —
// values still under construction whose fields may be set lock-free.
func constructedLocals(p *Package, fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if !isCompositeInit(rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if v, ok := p.Info.Defs[id].(*types.Var); ok {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

func isCompositeInit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr: // new(T)
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}
