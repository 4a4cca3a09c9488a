package lint

import (
	"go/ast"
	"go/types"
)

// ROAM004 bodyhygiene: every *http.Response obtained in a function must
// have its body drained AND closed on every path, and reads from a
// network body must be bounded. An unclosed body leaks the connection;
// a closed-but-undrained body tears the connection out of the
// keep-alive pool (a fleet of MEs then churns one TCP dial per
// request); an unbounded io.ReadAll on a network body lets one confused
// peer balloon resident memory. The repo-wide bound is 256 KiB
// (amigo.DrainClose).
//
// Recognized evidence, per response variable, anywhere in the function:
//
//	handled  the whole *http.Response — or resp.Body itself — is
//	         passed to a module-local function (e.g. drainClose(resp),
//	         drainBody(resp.Body)) or escapes (returned, stored) —
//	         hygiene is the consumer's job. Standard-library calls do
//	         NOT delegate: json.NewDecoder(resp.Body) neither drains
//	         nor closes.
//	closed   resp.Body.Close() is called (plain or deferred)
//	drained  resp.Body is read by io.Copy/io.CopyN/io.ReadAll or
//	         wrapped in a reader passed to them
//
// A response with neither evidence, or closed without any drain, is
// flagged. Separately, io.ReadAll applied directly to an *http.Request
// or *http.Response Body — not wrapped in io.LimitReader — is flagged
// as an unbounded network read.
var bodyhygieneAnalyzer = &Analyzer{
	Name: "bodyhygiene",
	Code: "ROAM004",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { bodyhygieneAnalyzer.Run = runBodyhygiene }

func runBodyhygiene(p *Package) []Diagnostic {
	var out []Diagnostic
	inspect(p, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				out = append(out, responseLifecycles(p, n)...)
			}
		case *ast.CallExpr:
			if d, ok := unboundedBodyRead(p, n); ok {
				out = append(out, d)
			}
		}
		return true
	})
	return out
}

// unboundedBodyRead flags io.ReadAll(x.Body) where x is an
// *http.Request or *http.Response and the body is not wrapped in
// io.LimitReader.
func unboundedBodyRead(p *Package, call *ast.CallExpr) (Diagnostic, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ReadAll" || len(call.Args) != 1 {
		return Diagnostic{}, false
	}
	if pkgPath := importedPkg(p, sel); pkgPath != "io" && pkgPath != "io/ioutil" {
		return Diagnostic{}, false
	}
	arg, ok := call.Args[0].(*ast.SelectorExpr)
	if !ok || arg.Sel.Name != "Body" {
		return Diagnostic{}, false
	}
	t := p.Info.Types[arg.X].Type
	if !isNamedPtr(t, "net/http", "Request", "Response") {
		return Diagnostic{}, false
	}
	return diag(p, bodyhygieneAnalyzer, call.Pos(),
		"io.ReadAll on a network body without a bound: wrap it in io.LimitReader (repo bound: 256 KiB)"), true
}

// responseLifecycles tracks each *http.Response-typed variable assigned
// from a call inside fd and checks close/drain evidence.
func responseLifecycles(p *Package, fd *ast.FuncDecl) []Diagnostic {
	type state struct {
		pos     ast.Node
		name    string
		handled bool // passed whole to a function, or escapes
		closed  bool
		drained bool
	}
	resps := map[*types.Var]*state{}

	// Pass 1: find `resp, err := <call>` / `resp = <call>` bindings.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if _, ok := as.Rhs[0].(*ast.CallExpr); !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() || !isNamedPtr(v.Type(), "net/http", "Response") {
				continue
			}
			if _, seen := resps[v]; !seen {
				resps[v] = &state{pos: id, name: v.Name()}
			}
		}
		return true
	})
	if len(resps) == 0 {
		return nil
	}

	varOf := func(e ast.Expr) *types.Var {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		v, _ := p.Info.Uses[id].(*types.Var)
		return v
	}
	// bodyOf returns the response var when e is (or wraps) `resp.Body`.
	var bodyOf func(e ast.Expr) *types.Var
	bodyOf = func(e ast.Expr) *types.Var {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if e.Sel.Name == "Body" {
				if v := varOf(e.X); v != nil {
					return v
				}
			}
		case *ast.CallExpr: // io.LimitReader(resp.Body, n), bufio.NewReader(resp.Body), ...
			for _, a := range e.Args {
				if v := bodyOf(a); v != nil {
					return v
				}
			}
		}
		return nil
	}

	// Pass 2: collect evidence.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// resp.Body.Close()
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if v := bodyOf(sel.X); v != nil {
					if st := resps[v]; st != nil {
						st.closed = true
					}
					return true
				}
			}
			// Drains: io.Copy/CopyN/ReadAll with resp.Body in the args.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if importedPkg(p, sel) == "io" &&
					(sel.Sel.Name == "Copy" || sel.Sel.Name == "CopyN" || sel.Sel.Name == "ReadAll") {
					for _, a := range n.Args {
						if v := bodyOf(a); v != nil {
							if st := resps[v]; st != nil {
								st.drained = true
							}
						}
					}
					return true
				}
			}
			// Whole response passed to some function: drainClose(resp),
			// helper(resp), method resp.Write(w), etc. — delegated.
			for _, a := range n.Args {
				if v := varOf(a); v != nil {
					if st := resps[v]; st != nil {
						st.handled = true
					}
				}
			}
			// resp.Body handed to a module-local helper that can close
			// it (drainBody(io.ReadCloser), ...): the helper owns the
			// lifecycle. Stdlib wrappers (json.NewDecoder, bufio.NewReader)
			// and helpers that only read (a parameter with no Close, like
			// wire.Decoder.ReadResults) do not count.
			if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil {
				if _, local := moduleRel(fn.Pkg().Path()); local {
					for i, a := range n.Args {
						if v := bodyOf(a); v != nil && resps[v] != nil && closesParam(fn, i) {
							resps[v].handled = true
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if v := varOf(r); v != nil {
					if st := resps[v]; st != nil {
						st.handled = true
					}
				}
			}
		case *ast.AssignStmt:
			// resp (or resp.Body) stored somewhere else: escapes.
			for _, r := range n.Rhs {
				if v := varOf(r); v != nil {
					if st := resps[v]; st != nil {
						st.handled = true
					}
				}
			}
		case *ast.UnaryExpr, *ast.CompositeLit:
			// &resp or a literal mentioning resp: treat embedded uses
			// as escapes via the contained idents.
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, _ := p.Info.Uses[id].(*types.Var); v != nil {
						if st := resps[v]; st != nil {
							st.handled = true
						}
					}
				}
				return true
			})
			return false
		}
		return true
	})

	var out []Diagnostic
	for _, st := range resps {
		if st.handled {
			continue
		}
		switch {
		case !st.closed:
			out = append(out, diag(p, bodyhygieneAnalyzer, st.pos.Pos(),
				"response body of %q is never closed in %s: close (and drain) it on every path",
				st.name, fd.Name.Name))
		case !st.drained:
			out = append(out, diag(p, bodyhygieneAnalyzer, st.pos.Pos(),
				"response body of %q is closed but never drained in %s: undrained bodies tear the connection out of the keep-alive pool",
				st.name, fd.Name.Name))
		}
	}
	return out
}

// closesParam reports whether fn's i-th argument has a Close method, so
// a body passed there can be closed by fn.
func closesParam(fn *types.Func, i int) bool {
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	if params.Len() == 0 {
		return false
	}
	t := params.At(min(i, params.Len()-1)).Type()
	if sig.Variadic() && i >= params.Len()-1 {
		t = t.(*types.Slice).Elem()
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "Close")
	_, isFunc := obj.(*types.Func)
	return isFunc
}
