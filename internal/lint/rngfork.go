package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ROAM002 rngfork: a *rng.Source is not safe for concurrent use, and
// Fork/ForkSeed consume a draw from the parent, so the fork ORDER is
// part of the deterministic contract. Parallel code must fork every
// worker's stream serially, in canonical order, BEFORE spawning any
// goroutine (rng.ForkN / rng.Source.ForkSeed), then hand exactly one
// child to each goroutine.
//
// The analyzer flags any *rng.Source variable declared outside a `go
// func` literal — or outside a job literal handed to fleet.RunPool,
// which runs it on the pool's goroutines — and referenced inside it: whether the closure draws
// from the captured stream or forks it, the draw order now depends on
// goroutine scheduling and the dataset is no longer a function of the
// seed. The sanctioned patterns pass naturally:
//
//	srcs := parent.ForkN("campaign", n) // []*rng.Source capture is fine:
//	go func() { run(srcs[i]) }()        // each goroutine owns its element
//
//	go func(s *rng.Source) { run(s) }(srcs[i]) // parameter, not capture
//
//	go func() { s := rng.Stream(seed, label); ... }() // stateless derive
var rngforkAnalyzer = &Analyzer{
	Name: "rngfork",
	Code: "ROAM002",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { rngforkAnalyzer.Run = runRngfork }

func runRngfork(p *Package) []Diagnostic {
	var out []Diagnostic
	inspect(p, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, capturedSources(p, lit)...)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "roamsim/internal/fleet" && fn.Name() == "RunPool" {
				if lit, ok := n.Args[len(n.Args)-1].(*ast.FuncLit); ok {
					out = append(out, capturedSources(p, lit)...)
				}
			}
		}
		return true
	})
	return out
}

// capturedSources reports each distinct outer *rng.Source variable
// referenced inside the goroutine body.
func capturedSources(p *Package, lit *ast.FuncLit) []Diagnostic {
	var out []Diagnostic
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if !isNamedPtr(v.Type(), "roamsim/internal/rng", "Source") {
			return true
		}
		// Declared inside the literal (parameter or local): the
		// goroutine owns it.
		if within(lit, v.Pos()) {
			return true
		}
		seen[v] = true
		out = append(out, diag(p, rngforkAnalyzer, id.Pos(),
			"*rng.Source %q captured by go closure: fork it before the spawn (rng.ForkN / ForkSeed) and pass the child in",
			v.Name()))
		return true
	})
	return out
}

func within(lit *ast.FuncLit, pos token.Pos) bool {
	return pos >= lit.Pos() && pos <= lit.End()
}
