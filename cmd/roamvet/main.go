// Command roamvet runs the repo's static-analysis suite: eight
// analyzers that enforce the determinism, hygiene, crash-safety, and
// concurrency contracts the byte-identical-dataset guarantee rests on
// (see internal/lint and the "Determinism contract" section of
// DESIGN.md).
//
//	roamvet                     # analyze every package in the module
//	roamvet -json               # machine-readable report (editors, CI)
//	roamvet -allows             # print the //lint:allow waiver inventory
//	roamvet -C /path/to/module  # analyze another checkout
//
// It loads the module with one `go list -export` run, so it needs the
// go command and a writable GOCACHE. The -json report carries both the
// findings and the full inventory of active //lint:allow directives
// (file, line, analyzer, reason), so a CI artifact shows every place the
// tree opts out of a contract — and why — not just where it violates
// one.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure (a failing
// go command or a type error).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"roamsim/internal/lint"
)

// report is the -json output schema.
type report struct {
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
	Allows      []lint.Allow      `json:"allows"`
}

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit findings and the allow inventory as JSON")
		showAllow = flag.Bool("allows", false, "print active //lint:allow directives and exit")
		dir       = flag.String("C", ".", "module root to analyze")
	)
	flag.Parse()

	var pkgs []*lint.Package
	loader, err := lint.NewLoader(*dir)
	if err == nil {
		pkgs, err = loader.LoadAll()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "roamvet:", err)
		os.Exit(2)
	}

	loadBroken := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrs {
			fmt.Fprintf(os.Stderr, "roamvet: %s: type error: %v\n", p.Path, terr)
			loadBroken = true
		}
	}

	diags, allows := lint.CheckModule(pkgs, lint.Analyzers())
	if *showAllow {
		for _, a := range allows {
			fmt.Printf("%s:%d: allow %s: %s\n", a.File, a.Line, a.Analyzer, a.Reason)
		}
		fmt.Fprintf(os.Stderr, "roamvet: %d active allow directive(s)\n", len(allows))
		if loadBroken {
			os.Exit(2)
		}
		return
	}

	if *jsonOut {
		rep := report{Diagnostics: diags, Allows: allows}
		if rep.Diagnostics == nil {
			rep.Diagnostics = []lint.Diagnostic{}
		}
		if rep.Allows == nil {
			rep.Allows = []lint.Allow{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "roamvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	switch {
	case loadBroken:
		os.Exit(2)
	case len(diags) > 0:
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "roamvet: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
