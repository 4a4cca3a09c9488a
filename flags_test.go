package roamsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestREADMEFlagTables holds README's flag tables to the binaries: every
// flag a main.go defines has a row in its command's table, and every
// row names only flags that exist. The tables are written by hand, so
// this is what catches a flag added, renamed or dropped without them.
func TestREADMEFlagTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"roam-fleet", "amigo-server"} {
		defined := definedFlags(t, "cmd/"+cmd+"/main.go")
		documented := tableFlags(t, string(readme), "`"+cmd+"` flags:")
		if len(defined) == 0 || len(documented) == 0 {
			t.Fatalf("%s: %d flags defined, %d documented; the parse found nothing", cmd, len(defined), len(documented))
		}
		for _, f := range defined {
			if !slices.Contains(documented, f) {
				t.Errorf("%s: flag -%s has no row in README's table", cmd, f)
			}
		}
		for _, f := range documented {
			if !slices.Contains(defined, f) {
				t.Errorf("%s: README's table documents -%s, which main.go does not define", cmd, f)
			}
		}
	}
}

// definedFlags returns the names of the flag.Bool/Int/String/… calls in
// a main.go.
func definedFlags(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name == "Parse" || sel.Sel.Name == "Visit" {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return true
	})
	return names
}

var (
	// cellEnd matches the end of a Markdown table cell: an unescaped pipe
	// and the character before it.
	cellEnd = regexp.MustCompile(`[^\\]\|`)
	// flagName matches a flag at the start of a code span: `-name …`.
	flagName = regexp.MustCompile("`-([a-z0-9-]+)")
)

// tableFlags returns the flags named in the first column of the table
// that follows heading in README.
func tableFlags(t *testing.T, readme, heading string) []string {
	t.Helper()
	_, rest, ok := strings.Cut(readme, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("README has no %q heading", heading)
	}
	var names []string
	for _, line := range strings.Split(rest, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		first := line[1:]
		if end := cellEnd.FindStringIndex(first); end != nil {
			first = first[:end[0]+1]
		}
		for _, m := range flagName.FindAllStringSubmatch(first, -1) {
			names = append(names, m[1])
		}
	}
	return names
}
