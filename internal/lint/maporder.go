package lint

import (
	"go/ast"
	"go/types"
)

// ROAM003 maporder: Go randomizes map iteration order per run, so a
// `range` over a map must never feed ordered output directly. Inside
// deterministic scope the analyzer flags a map-range body that
//
//   - appends to a slice declared outside the loop, unless that slice
//     is passed to a sort.* / slices.Sort* call later in the same
//     function (the canonical collect-keys-then-sort idiom),
//   - writes to an io.Writer / bytes.Buffer / strings.Builder or calls
//     fmt.Print*/Fprint* (bytes hit the output in iteration order —
//     no post-hoc sort can fix that),
//   - concatenates onto a string variable declared outside the loop.
//
// Commutative uses (summing into a counter, writing into another map,
// finding a max) pass untouched.
var maporderAnalyzer = &Analyzer{
	Name: "maporder",
	Code: "ROAM003",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { maporderAnalyzer.Run = runMaporder }

func runMaporder(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		if !inScope(dataset, p, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, maporderFunc(p, fd)...)
		}
	}
	return out
}

func maporderFunc(p *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		out = append(out, maporderBody(p, fd, rs)...)
		return true
	})
	return out
}

func maporderBody(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// v = append(v, ...) where v is declared outside the range.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(p, call) || i >= len(n.Lhs) {
					continue
				}
				target, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := p.Info.Uses[target].(*types.Var)
				if !ok && p.Info.Defs[target] != nil {
					continue // := inside the loop: loop-local, ordering irrelevant
				}
				if !ok || v.Pos() >= rs.Pos() && v.Pos() <= rs.End() {
					continue
				}
				if sortedAfter(p, fd, rs, v) {
					continue
				}
				out = append(out, diag(p, maporderAnalyzer, n.Pos(),
					"append to %q inside range over map: iteration order leaks into the slice (sort it afterwards or iterate sorted keys)",
					v.Name()))
			}
			// s += ... on an outer string.
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					if v, ok := p.Info.Uses[id].(*types.Var); ok &&
						isString(v.Type()) && !(v.Pos() >= rs.Pos() && v.Pos() <= rs.End()) {
						out = append(out, diag(p, maporderAnalyzer, n.Pos(),
							"string concatenation onto %q inside range over map: output depends on iteration order",
							v.Name()))
					}
				}
			}
		case *ast.CallExpr:
			if name, ok := orderedWriteCall(p, n); ok {
				out = append(out, diag(p, maporderAnalyzer, n.Pos(),
					"%s inside range over map: bytes reach the output in iteration order (iterate sorted keys instead)",
					name))
			}
		}
		return true
	})
	return out
}

func isBuiltinAppend(p *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// sortedAfter reports whether v is handed to a sort.* or slices.*Sort*
// call positioned after the range statement in the same function — the
// collect-then-sort idiom that makes the append order-safe.
func sortedAfter(p *Package, fd *ast.FuncDecl, rs *ast.RangeStmt, v *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkgPath := importedPkg(p, sel); pkgPath != "sort" && pkgPath != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsVar(p, arg, v) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func mentionsVar(p *Package, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == v {
			found = true
			return false
		}
		return !found
	})
	return found
}

// orderedWriteFuncs are fmt functions whose output position is the
// call site itself.
var orderedWriteFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// orderedWriteMethods are methods that push bytes onto an ordered sink.
var orderedWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// orderedWriteCall recognizes writes whose byte order is the iteration
// order: fmt.Print*/Fprint* and Write* methods on io.Writer
// implementations (bytes.Buffer, strings.Builder, files, ...).
func orderedWriteCall(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if importedPkg(p, sel) == "fmt" && orderedWriteFuncs[sel.Sel.Name] {
		return "fmt." + sel.Sel.Name, true
	}
	if !orderedWriteMethods[sel.Sel.Name] {
		return "", false
	}
	// Any Write*/WriteString method call counts: bytes emitted in range
	// order are wrong regardless of the concrete sink type.
	if selInfo, ok := p.Info.Selections[sel]; ok && selInfo.Kind() == types.MethodVal {
		return types.TypeString(selInfo.Recv(), func(p *types.Package) string {
			return p.Name()
		}) + "." + sel.Sel.Name, true
	}
	return "", false
}
