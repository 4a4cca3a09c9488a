package lint

import "go/ast"

// ROAM007 clockpurity: dataset-producing code and everything migrated
// onto the injectable campaign clock (internal/vclock) must take time
// only from an injected vclock.Clock, and randomness only from a seeded
// stream. Every run of a campaign must be a pure function of its seed;
// a time.Now() or rand.Intn() on a dataset path silently couples output
// to the machine, the scheduler, or the process-global rng and shows up
// later as an unexplainable byte-diff between "identical" runs. Under
// virtual time a wall-clock wait is worse still: it stalls a campaign
// that finishes in milliseconds, or expires mid-quiescence and perturbs
// the advance sequence.
//
// Forbidden inside deterministic scope, each with its replacement:
//   - wall-clock reads and waits: time.Now, Since, Until, Sleep, After,
//     Tick;
//   - wall-clock timers: time.NewTimer, NewTicker, AfterFunc — a timer
//     on the runtime's scheduler is invisible to the Virtual clock's
//     quiescence detection;
//   - deadline contexts: context.WithTimeout, WithDeadline — use
//     vclock.ContextWithTimeout;
//   - any package-level math/rand or math/rand/v2 function or variable
//     (rand.Intn, rand.Float64, rand.Seed, ...). Constructing explicit
//     seeded generators (rand.New, rand.NewSource, rand.NewZipf, and
//     the rand.Rand/Source/Source64/Zipf types) stays legal: that is
//     exactly how internal/rng wraps math/rand.
//
// vclock's Real implementation is the one sanctioned home of the wall
// clock and carries visible //lint:allow directives.
var clockpurityAnalyzer = &Analyzer{
	Name: "clockpurity",
	Code: "ROAM007",
	// Run is wired in init to avoid an initialization cycle
	// (the run function references the analyzer for diagnostics).
}

func init() { clockpurityAnalyzer.Run = runClockpurity }

// clockBanned maps each banned package member to its sanctioned
// replacement.
var clockBanned = map[string]map[string]string{
	"context": {
		"WithTimeout":  "vclock.ContextWithTimeout",
		"WithDeadline": "vclock.ContextWithTimeout",
	},
	"time": {
		"Now": "Clock.Now", "Since": "Clock.Now", "Until": "Clock.Now",
		"Sleep": "vclock.SleepCtx", "After": "Clock.NewTimer", "Tick": "Clock.NewTimer (a new timer per tick)",
		"NewTimer": "Clock.NewTimer", "NewTicker": "Clock.NewTimer (a new timer per tick)", "AfterFunc": "Clock.NewTimer",
	},
}

// mathRandAllowed lists math/rand members that construct or name
// explicitly-seeded generators rather than touching the global stream.
var mathRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 constructors
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

func runClockpurity(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		if !inScope(dataset, p, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath := importedPkg(p, sel)
			name := sel.Sel.Name
			switch pkgPath {
			case "math/rand", "math/rand/v2":
				if !mathRandAllowed[name] {
					out = append(out, diag(p, clockpurityAnalyzer, sel.Pos(),
						"global rand.%s in deterministic package %s: draw from a seeded rng.Source instead",
						name, p.Path))
				}
			default:
				if repl, ok := clockBanned[pkgPath][name]; ok {
					out = append(out, diag(p, clockpurityAnalyzer, sel.Pos(),
						"%s.%s in deterministic package %s bypasses the injected vclock.Clock: use %s",
						pkgPath, name, p.Path, repl))
				}
			}
			return true
		})
	}
	return out
}
