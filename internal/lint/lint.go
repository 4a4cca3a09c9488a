// Package lint implements roamvet, the repo's static-analysis suite.
//
// The core scientific claim of this reproduction — byte-identical
// campaign datasets across worker counts, chaos schedules, and metrics
// on/off — rests on a handful of coding contracts that are otherwise
// only checked by expensive end-to-end equivalence tests:
//
//	ROAM002 rngfork      rng streams are forked before goroutine spawn,
//	                     never captured by a go closure
//	ROAM003 maporder     map iteration never feeds ordered output
//	                     without an intervening sort
//	ROAM004 bodyhygiene  HTTP response bodies are drained, closed, and
//	                     read through a bound on every path
//	ROAM005 guardedfield fields annotated "guarded by <mu>" are only
//	                     touched with <mu> held
//	ROAM006 fsyncrename  durable renames are fenced: tmp → File.Sync →
//	                     os.Rename → directory fsync, on every path
//	ROAM007 clockpurity  no wall clock, wall-clock timer, deadline
//	                     context, or global math/rand bypasses the
//	                     injected vclock.Clock and seeded rng
//	ROAM008 gojoin       every control-plane go statement has a join
//	                     path (WaitGroup pairing or channel collector)
//	ROAM009 lockorder    the module-wide mutex acquisition graph is
//	                     acyclic
//
// ROAM001 (wallclock) is retired: its reads, sleeps and global-rand
// checks are part of ROAM007, so the determinism contract is one
// analyzer over one banned table. Codes are never reused.
//
// rngfork, maporder, bodyhygiene, guardedfield and clockpurity are
// syntactic; fsyncrename, gojoin and lockorder are flow-aware and run
// on the shared CFG + dataflow engine in cfg.go. Most analyzers work on
// one type-checked package at a time and emit file:line diagnostics;
// lockorder sees the whole module at once (Analyzer.RunModule).
// Violations that are intentional carry an explicit escape hatch on
// the same or the preceding line:
//
//	//lint:allow clockpurity <reason>
//
// The reason string is mandatory: a bare directive is itself reported
// (ROAM000), so every suppression in the tree documents why the
// contract does not apply. A directive naming no analyzer, or one for
// an analyzer that ran and found nothing to suppress, is reported as
// ROAM000 too: a waiver that waives nothing only hides the next real
// finding.
//
// The module loads with one `go list -export` run (load.go): each
// module package is type-checked from source on its own, and every
// import, module packages included, is read from export data. The
// suite is stdlib-only (go/parser, go/ast, go/types, go/importer), so
// go.mod stays dependency-free.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
)

// Diagnostic is one analyzer finding, positioned in the original source.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Code     string `json:"code"`     // "ROAM007"
	Analyzer string `json:"analyzer"` // "clockpurity"
	Message  string `json:"message"`
}

// String renders the canonical single-line form used by the CLI.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]: %s", d.File, d.Line, d.Col, d.Code, d.Analyzer, d.Message)
}

// An Analyzer inspects type-checked packages and reports contract
// violations. Per-package analyzers set Run; analyzers whose contract
// spans package boundaries (lockorder's module-wide mutex graph) set
// RunModule instead and see every loaded package at once. Either entry
// point must be safe to call on packages with partial type information
// (nil entries in Info maps) — analyzers degrade to reporting nothing
// rather than panicking.
type Analyzer struct {
	Name      string // the name diagnostics and //lint:allow use, e.g. "clockpurity"
	Code      string // stable diagnostic code, e.g. "ROAM007"
	Run       func(p *Package) []Diagnostic
	RunModule func(pkgs []*Package) []Diagnostic
}

// Analyzers is the full suite in code order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		rngforkAnalyzer,
		maporderAnalyzer,
		bodyhygieneAnalyzer,
		guardedfieldAnalyzer,
		fsyncrenameAnalyzer,
		clockpurityAnalyzer,
		gojoinAnalyzer,
		lockorderAnalyzer,
	}
}

func analyzerNames(as []*Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// CheckModule runs the given analyzers over the loaded packages:
// per-package analyzers on each package, module analyzers once over
// the whole set. //lint:allow suppression applies across all of them.
// Waiver hygiene is reported as ROAM000: a directive without a reason,
// one naming no analyzer, and one for a given analyzer that suppressed
// nothing. It returns the findings and the well-formed directives, each
// sorted by position.
func CheckModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Allow) {
	var diags []Diagnostic
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
		if a.Run == nil {
			continue
		}
		for _, p := range pkgs {
			diags = append(diags, a.Run(p)...)
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			diags = append(diags, a.RunModule(pkgs)...)
		}
	}
	// used records, per well-formed directive, whether it suppressed a
	// finding; a directive covers its own line and the one below.
	used := map[allowKey]bool{}
	var allows []Allow
	var out []Diagnostic
	for _, p := range pkgs {
		list, malformed := collectAllows(p)
		for _, al := range list {
			used[allowKey{al.File, al.Line, al.Analyzer}] = false
		}
		allows = append(allows, list...)
		out = append(out, malformed...)
	}
	for _, d := range diags {
		suppressed := false
		for _, line := range []int{d.Line, d.Line - 1} {
			k := allowKey{d.File, line, d.Analyzer}
			if _, ok := used[k]; ok {
				used[k] = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, al := range allows {
		if selected[al.Analyzer] && !used[allowKey{al.File, al.Line, al.Analyzer}] {
			out = append(out, allowDiag(al.File, al.Line, al.col,
				"lint:allow %s suppresses nothing: remove the stale waiver", al.Analyzer))
		}
	}
	slices.SortStableFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.File, b.File), a.Line-b.Line, a.Col-b.Col)
	})
	slices.SortStableFunc(allows, func(a, b Allow) int {
		return cmp.Or(strings.Compare(a.File, b.File), a.Line-b.Line)
	})
	return out, allows
}

// An Allow is one active //lint:allow directive: the waiver inventory
// roamvet -json and -allows expose so CI artifacts show every place
// the tree opts out of a contract, and why. Malformed directives (no
// reason, or no such analyzer) are ROAM000 findings, not waivers.
type Allow struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`

	col int // the directive's column, for ROAM000 reports
}

// diag builds a Diagnostic for node position pos.
func diag(p *Package, a *Analyzer, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Code:     a.Code,
		Analyzer: a.Name,
		Message:  fmt.Sprintf(format, args...),
	}
}

// allowRe matches the source escape hatch: //lint:allow <analyzer> <reason>.
// It suppresses that analyzer's diagnostics on its own line and on the
// line directly below it (so it can sit above the offending statement).
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z]+)\b[ \t]*(.*)$`)

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// collectAllows scans every comment in the package for allow
// directives and returns them with their reasons. A directive naming
// no analyzer, or with an empty reason, is returned as a ROAM000
// diagnostic instead of a suppression: the justification is part of
// the contract.
func collectAllows(p *Package) ([]Allow, []Diagnostic) {
	all := Analyzers()
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	var allows []Allow
	var malformed []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				name, reason := m[1], strings.TrimSpace(m[2])
				switch {
				case !known[name]:
					malformed = append(malformed, allowDiag(pos.Filename, pos.Line, pos.Column,
						"lint:allow names unknown analyzer %q (have %s)", name, analyzerNames(all)))
				case reason == "":
					malformed = append(malformed, allowDiag(pos.Filename, pos.Line, pos.Column,
						"lint:allow %s directive needs a reason string", name))
				default:
					allows = append(allows, Allow{File: pos.Filename, Line: pos.Line, Analyzer: name, Reason: reason, col: pos.Column})
				}
			}
		}
	}
	return allows, malformed
}

// allowDiag builds a ROAM000 waiver-hygiene diagnostic.
func allowDiag(file string, line, col int, format string, args ...any) Diagnostic {
	return Diagnostic{
		File:     file,
		Line:     line,
		Col:      col,
		Code:     "ROAM000",
		Analyzer: "allow",
		Message:  fmt.Sprintf(format, args...),
	}
}

// inspect walks every file in the package, calling fn for each node.
// Returning false prunes the subtree.
func inspect(p *Package, fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// importedPkg returns the import path of the package sel's base names,
// or "" if sel is not a package-qualified selector.
func importedPkg(p *Package, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// isPkgCall reports whether call is pkgPath.name(...), with the package
// resolved through the type checker (so renamed imports and shadowing
// locals are judged correctly).
func isPkgCall(p *Package, call *ast.CallExpr, pkgPath, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name && importedPkg(p, sel) == pkgPath
}

// calleeFunc resolves a call's callee to its *types.Func, if any.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isNamedPtr reports whether t is a pointer to the named type
// pkgPath.name for one of the given names.
func isNamedPtr(t types.Type, pkgPath string, names ...string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && slices.Contains(names, obj.Name())
}

// funcDecl is one declared function with a body and its type-checker
// object.
type funcDecl struct {
	p  *Package
	fd *ast.FuncDecl
	fn *types.Func
}

// funcDecls lists the function declarations with bodies in the given
// packages, in package, file and declaration order.
func funcDecls(pkgs ...*Package) []funcDecl {
	var out []funcDecl
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					out = append(out, funcDecl{p, fd, fn})
				}
			}
		}
	}
	return out
}

// A summary maps a function's FullName to the facts its body yields.
// It keys by name, not by *types.Func: a function imported into another
// package is another object there.
type summary map[string]facts

// summarize computes, for every function in decls, the facts direct
// finds in its body plus those of every function in decls it calls, as
// a transitive fixed point. Calls under a go statement are left out: a
// spawned call does not run while its caller waits.
func summarize(decls []funcDecl, direct func(funcDecl) []string) summary {
	sum := summary{}
	callees := make([][]string, len(decls))
	for i, d := range decls {
		for _, f := range direct(d) {
			sum.add(d.fn.FullName(), f)
		}
		walkNoGo(d.fd.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(d.p, call); fn != nil {
					callees[i] = append(callees[i], fn.FullName())
				}
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			for _, callee := range callees[i] {
				for f := range sum[callee] {
					changed = sum.add(d.fn.FullName(), f) || changed
				}
			}
		}
	}
	return sum
}

// add records fact for fn and reports whether it was new.
func (s summary) add(fn, fact string) bool {
	if s[fn][fact] {
		return false
	}
	if s[fn] == nil {
		s[fn] = facts{}
	}
	s[fn][fact] = true
	return true
}

// of returns the summary of call's callee: nil for a callee it does not
// know.
func (s summary) of(p *Package, call *ast.CallExpr) facts {
	if fn := calleeFunc(p, call); fn != nil {
		return s[fn.FullName()]
	}
	return nil
}

// walkNoGo visits every node except go-statement subtrees.
func walkNoGo(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
