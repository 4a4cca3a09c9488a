package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses src (a file body containing one function named f)
// and returns the function's declaration.
func parseFunc(t *testing.T, src string) *ast.FuncDecl {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return fd
		}
	}
	t.Fatal("no func f in source")
	return nil
}

// callFact is a transfer function for the tests: a call to gen() sets
// the fact, a call to kill() clears it.
func callFact(n ast.Node, in facts) facts {
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "gen":
				in["x"] = true
			case "kill":
				delete(in, "x")
			}
		}
		return true
	})
	return in
}

// factAtCall finds the call to probe() and returns whether fact "x"
// holds there under the given solve configuration.
func factAtCall(t *testing.T, fd *ast.FuncDecl, probe string, forward, must bool) bool {
	t.Helper()
	g := buildCFG(fd.Body)
	res := g.solve(forward, must, callFact)
	var found, val bool
	for n, f := range res {
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == probe {
				found = true
				val = f["x"]
			}
			return true
		})
	}
	if !found {
		t.Fatalf("no call to %s found in flow results", probe)
	}
	return val
}

func TestCFGForwardMustBranches(t *testing.T) {
	// gen() on only one branch: must analysis rejects, may accepts.
	fd := parseFunc(t, `
func f(c bool) {
	if c {
		gen()
	}
	probe()
}`)
	if factAtCall(t, fd, "probe", true, true) {
		t.Error("must-forward: fact should not survive a branch that skips gen()")
	}
	if !factAtCall(t, fd, "probe", true, false) {
		t.Error("may-forward: fact should reach probe() via the gen() branch")
	}
}

func TestCFGForwardMustBothBranches(t *testing.T) {
	fd := parseFunc(t, `
func f(c bool) {
	if c {
		gen()
	} else {
		gen()
	}
	probe()
}`)
	if !factAtCall(t, fd, "probe", true, true) {
		t.Error("must-forward: gen() on both branches should dominate probe()")
	}
}

func TestCFGKillOnPath(t *testing.T) {
	fd := parseFunc(t, `
func f(c bool) {
	gen()
	if c {
		kill()
	}
	probe()
}`)
	if factAtCall(t, fd, "probe", true, true) {
		t.Error("must-forward: kill() on one path should defeat the fact")
	}
}

func TestCFGLoopCarriesFacts(t *testing.T) {
	// The fact is generated inside the loop body; at the loop head it
	// may hold (back edge) but must not (zero-iteration path).
	fd := parseFunc(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		gen()
	}
	probe()
}`)
	if factAtCall(t, fd, "probe", true, true) {
		t.Error("must-forward: zero-iteration loop path should defeat the fact")
	}
	if !factAtCall(t, fd, "probe", true, false) {
		t.Error("may-forward: loop body gen() should reach past the loop")
	}
}

func TestCFGBackwardMust(t *testing.T) {
	// Backward: does gen() lie ahead on every path from probe()?
	fd := parseFunc(t, `
func f(c bool) {
	probe()
	if c {
		return
	}
	gen()
}`)
	if factAtCall(t, fd, "probe", false, true) {
		t.Error("backward-must: the early return path skips gen()")
	}
	fd = parseFunc(t, `
func f(c bool) {
	probe()
	gen()
}`)
	if !factAtCall(t, fd, "probe", false, true) {
		t.Error("backward-must: straight-line gen() after probe() should hold")
	}
}

func TestCFGDeferRunsOnExit(t *testing.T) {
	// A deferred gen() runs after every return: backward-must sees it.
	fd := parseFunc(t, `
func f(c bool) {
	defer gen()
	probe()
	if c {
		return
	}
}`)
	if !factAtCall(t, fd, "probe", false, true) {
		t.Error("backward-must: deferred gen() should cover every exit path")
	}
}

func TestCFGBreakContinue(t *testing.T) {
	fd := parseFunc(t, `
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 3 {
			break
		}
		if i == 2 {
			continue
		}
		gen()
	}
	probe()
}`)
	// break skips gen() on that path; may-forward still reaches.
	if factAtCall(t, fd, "probe", true, true) {
		t.Error("must-forward: break path skips gen()")
	}
	if !factAtCall(t, fd, "probe", true, false) {
		t.Error("may-forward: gen() should reach probe()")
	}
}

func TestCFGSwitchSelect(t *testing.T) {
	fd := parseFunc(t, `
func f(n int) {
	switch n {
	case 1:
		gen()
	case 2:
		gen()
	default:
		gen()
	}
	probe()
}`)
	if !factAtCall(t, fd, "probe", true, true) {
		t.Error("must-forward: gen() in every switch arm incl. default should dominate")
	}
	fd = parseFunc(t, `
func f(n int) {
	switch n {
	case 1:
		gen()
	}
	probe()
}`)
	if factAtCall(t, fd, "probe", true, true) {
		t.Error("must-forward: switch without default has a fall-past path")
	}
}

func TestCFGClosureBodyIsOpaque(t *testing.T) {
	// gen() inside a func literal must not count as flow of the
	// enclosing function.
	fd := parseFunc(t, `
func f() {
	g := func() { gen() }
	g()
	probe()
}`)
	if factAtCall(t, fd, "probe", true, false) {
		t.Error("may-forward: gen() inside a closure body must not leak into enclosing flow")
	}
}

// TestContainingNodeInsideRange: a call in a range body maps to its own
// statement, not to the RangeStmt node that spans the whole loop, so a
// fact the body sets before the call holds at the call.
func TestContainingNodeInsideRange(t *testing.T) {
	fd := parseFunc(t, `
func f(xs []int) {
	for range xs {
		gen()
		probe()
	}
}`)
	var probe *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun.(*ast.Ident).Name == "probe" {
			probe = call
		}
		return probe == nil
	})
	g := buildCFG(fd.Body)
	node := containingNode(g, probe)
	if _, ok := node.(*ast.ExprStmt); !ok {
		t.Fatalf("containingNode = %T, want the call's *ast.ExprStmt", node)
	}
	if !g.solve(true, true, callFact)[node]["x"] {
		t.Error("must-forward: gen() before probe() in the loop body should hold at probe()")
	}
}
