package lint

import (
	"go/ast"
	"go/types"
)

// ROAM001 wallclock: dataset-producing code must not read the wall
// clock or draw from the global math/rand stream. Every run of a
// campaign must be a pure function of its seed; a time.Now() or
// rand.Intn() on a dataset path silently couples output to the
// machine, the scheduler, or the process-global rng and shows up later
// as an unexplainable byte-diff between "identical" runs.
//
// Forbidden inside deterministic scope:
//   - time.Now, time.Since, time.Until (wall clock)
//   - time.Sleep, time.After, time.Tick (scheduler-coupled timing)
//   - any package-level math/rand or math/rand/v2 function or variable
//     (rand.Intn, rand.Float64, rand.Seed, ...). Constructing explicit
//     seeded generators (rand.New, rand.NewSource, rand.NewZipf, and
//     the rand.Rand/Source/Source64/Zipf types) stays legal: that is
//     exactly how internal/rng wraps math/rand.
var wallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Code: "ROAM001",
	Doc:  "no wall clock or global math/rand in dataset-producing packages",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { wallclockAnalyzer.Run = runWallclock }

var wallclockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
}

// mathRandAllowed lists math/rand members that construct or name
// explicitly-seeded generators rather than touching the global stream.
var mathRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 constructors
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

func runWallclock(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Pos()).Filename
		if !deterministic(p, filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath, obj := importedPkg(p, sel)
			if obj == nil {
				return true
			}
			switch pkgPath {
			case "time":
				if wallclockTimeFuncs[sel.Sel.Name] {
					out = append(out, diag(p, wallclockAnalyzer, sel.Pos(),
						"time.%s in deterministic package %s: datasets must be a pure function of the seed",
						sel.Sel.Name, p.Path))
				}
			case "math/rand", "math/rand/v2":
				if !mathRandAllowed[sel.Sel.Name] {
					out = append(out, diag(p, wallclockAnalyzer, sel.Pos(),
						"global %s.%s in deterministic package %s: draw from a seeded rng.Source instead",
						pkgBase(pkgPath), sel.Sel.Name, p.Path))
				}
			}
			return true
		})
	}
	return out
}

// importedPkg resolves sel's base to a package name and returns the
// imported package path, or "" if sel is not a package-qualified
// selector.
func importedPkg(p *Package, sel *ast.SelectorExpr) (string, types.Object) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", nil
	}
	obj := p.Info.Uses[id]
	pn, ok := obj.(*types.PkgName)
	if !ok {
		return "", nil
	}
	return pn.Imported().Path(), pn
}

func pkgBase(path string) string {
	if path == "math/rand/v2" {
		return "rand"
	}
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
