package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Golden-diagnostic harness. Each testdata/src/<name> package carries
// `// want "regexp"` comments on the lines where an analyzer must
// report (multiple quoted regexps on one line mean multiple expected
// diagnostics), and the harness diffs expected against emitted. A bare
// `//lint:allow <analyzer>` directive (no reason) is an implicit want
// for the ROAM000 malformed-directive diagnostic on its own line.

var wantTokRe = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")
var bareAllowRe = regexp.MustCompile(`^//lint:allow\s+[a-z]+\s*$`)

type wantEntry struct {
	file    string // basename
	line    int
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, p *Package) []*wantEntry {
	t.Helper()
	var wants []*wantEntry
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Fset.Position(c.Pos())
				if bareAllowRe.MatchString(c.Text) {
					wants = append(wants, &wantEntry{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   regexp.MustCompile(`^ROAM000`),
					})
					continue
				}
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				for _, tok := range wantTokRe.FindAllString(c.Text[idx+len("// want "):], -1) {
					re, err := regexp.Compile(tok[1 : len(tok)-1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, tok, err)
					}
					wants = append(wants, &wantEntry{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// checkGolden loads testdata/src/<dir> under the import path asPath,
// runs the named analyzers plus allow-suppression through CheckModule,
// and diffs diagnostics against want comments.
func checkGolden(t *testing.T, loader *Loader, dir, asPath string, analyzerNames ...string) {
	t.Helper()
	p, err := loader.LoadDir(filepath.Join("testdata", "src", dir), asPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, terr := range p.TypeErrs {
		t.Errorf("%s: type error: %v", dir, terr)
	}
	analyzers, err := Select(strings.Join(analyzerNames, ","))
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckModule([]*Package{p}, analyzers)
	wants := collectWants(t, p)

	for _, d := range diags {
		base := filepath.Base(d.File)
		matched := false
		for _, w := range wants {
			if w.matched || w.file != base || w.line != d.Line {
				continue
			}
			full := d.Code + " [" + d.Analyzer + "]: " + d.Message
			if w.re.MatchString(full) || w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestGoldenDiagnostics(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic import paths exercise the scope rules: measure is
	// in dataset scope, amigo (control plane) is not.
	const det = "roamsim/internal/measure"
	const nonDet = "roamsim/internal/amigo"

	t.Run("wallclock-scope", func(t *testing.T) {
		// Wall-clock reads, global rand and map order under a
		// control-plane path: nothing reported.
		checkGolden(t, loader, "wallclockscope", nonDet+"/scopegolden", "clockpurity", "maporder")
	})
	t.Run("rngfork", func(t *testing.T) {
		checkGolden(t, loader, "rngfork", det+"/rngforkgolden", "rngfork")
	})
	t.Run("maporder", func(t *testing.T) {
		checkGolden(t, loader, "maporder", det+"/maporder", "maporder")
	})
	t.Run("bodyhygiene", func(t *testing.T) {
		// bodyhygiene is scope-free: use a control-plane path to prove it.
		checkGolden(t, loader, "bodyhygiene", nonDet+"/bodygolden", "bodyhygiene")
	})
	t.Run("guardedfield", func(t *testing.T) {
		checkGolden(t, loader, "guardedfield", nonDet+"/guardedgolden", "guardedfield")
	})
	t.Run("fsyncrename", func(t *testing.T) {
		// Loaded under walsink so the durability scope applies.
		checkGolden(t, loader, "fsyncrename", "roamsim/internal/walsink/fsyncgolden", "fsyncrename")
	})
	t.Run("wallclock", func(t *testing.T) {
		// The retired ROAM001 cases on their own: wall-clock reads and
		// global rand draws are clockpurity findings.
		checkGolden(t, loader, "wallclock", det+"/wallgolden", "clockpurity")
	})
	t.Run("clockpurity", func(t *testing.T) {
		checkGolden(t, loader, "clockpurity", det+"/clockgolden", "clockpurity")
	})
	t.Run("gojoin", func(t *testing.T) {
		// Loaded under fleet so the control-plane scope applies.
		checkGolden(t, loader, "gojoin", "roamsim/internal/fleet/joingolden", "gojoin")
	})
	t.Run("lockorder", func(t *testing.T) {
		// lockorder is scope-free (module-wide); any path works.
		checkGolden(t, loader, "lockorder", "roamsim/internal/shard/lockgolden", "lockorder")
	})
	t.Run("allow-hygiene", func(t *testing.T) {
		// Unknown and stale waivers are ROAM000; a waiver for an
		// analyzer outside the selection is not judged.
		checkGolden(t, loader, "allowhygiene", det+"/allowgolden", "maporder")
	})
	t.Run("flow-scope", func(t *testing.T) {
		// The same violation shapes under a path outside every flow
		// analyzer's scope: nothing reported.
		checkGolden(t, loader, "flowscope", "roamsim/pkgx/scopegolden",
			"fsyncrename", "clockpurity", "gojoin")
	})
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != 8 {
		t.Fatalf("Select(all) = %d analyzers, err %v; want 8", len(all), err)
	}
	only, err := Select("clockpurity,maporder")
	if err != nil || len(only) != 2 {
		t.Fatalf("Select(only) = %d analyzers, err %v; want 2", len(only), err)
	}
	if _, err := Select("nosuch"); err == nil {
		t.Fatal("Select with unknown analyzer did not error")
	}
}

// TestLoaderFailsWithoutExportData: a standard-library import whose
// export data cannot be built (here: no build cache) is a type error of
// the importing package, which roamvet turns into exit 2, and never a
// package skipped without a word.
func TestLoaderFailsWithoutExportData(t *testing.T) {
	t.Setenv("GOCACHE", "off")
	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module m\n\ngo 1.22\n",
		"m.go":   "package m\n\nimport \"hash/adler32\"\n\nconst Size = adler32.Size\n",
	} {
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(mod)
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.TypeErrs) == 0 || !strings.Contains(p.TypeErrs[0].Error(), "no export data for hash/adler32") {
		t.Fatalf("type errors %v, want one naming the missing export data", p.TypeErrs)
	}
}

// TestScopeTablesNameRealPaths: every scope entry must name a
// directory or file that exists, or the analyzers it scopes silently
// lose that coverage when a package or file is moved or renamed.
func TestScopeTablesNameRealPaths(t *testing.T) {
	root := filepath.Join("..", "..")
	for name, subtrees := range map[string][]string{
		"detSubtrees":          detSubtrees,
		"durabilitySubtrees":   durabilitySubtrees,
		"controlPlaneSubtrees": controlPlaneSubtrees,
	} {
		for _, dir := range subtrees {
			if fi, err := os.Stat(filepath.Join(root, dir)); err != nil || !fi.IsDir() {
				t.Errorf("%s entry %q is not a directory of the module", name, dir)
			}
		}
	}
	for name, files := range map[string]map[string][]string{
		"detFiles":        detFiles,
		"durabilityFiles": durabilityFiles,
	} {
		for dir, bases := range files {
			for _, base := range bases {
				if fi, err := os.Stat(filepath.Join(root, dir, base)); err != nil || fi.IsDir() {
					t.Errorf("%s entry %s/%s is not a file of the module", name, dir, base)
				}
			}
		}
	}
}
