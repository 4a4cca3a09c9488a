package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	diags, _ := CheckModule([]*Package{p}, analyzersNamed(t, analyzerNames...))
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
	loader, err := NewLoader(filepath.Join("..", ".."))
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

// analyzersNamed picks analyzers from the suite by name.
func analyzersNamed(t *testing.T, names ...string) []*Analyzer {
	t.Helper()
	var out []*Analyzer
	for _, a := range Analyzers() {
		if slices.Contains(names, a.Name) {
			out = append(out, a)
		}
	}
	if len(out) != len(names) {
		t.Fatalf("analyzers %v: some name no analyzer of the suite", names)
	}
	return out
}

// TestLoaderFailsWithoutExportData: when the go command cannot build
// export data (here: no build cache), loading fails with an error that
// names the go command's failure, which roamvet turns into exit 2, and
// never skips a package without a word.
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
	_, err := NewLoader(mod)
	if err == nil || !strings.Contains(err.Error(), "go list") || !strings.Contains(err.Error(), "GOCACHE") {
		t.Fatalf("NewLoader with GOCACHE=off: error %v, want one naming the go command's failure", err)
	}
}

// TestScopeTablesNameRealPaths: every scope entry must name a
// directory or a file of the module, or the analyzers it scopes
// silently lose that coverage when a package or file is moved or
// renamed.
func TestScopeTablesNameRealPaths(t *testing.T) {
	for key, s := range scopes {
		fi, err := os.Stat(filepath.Join("..", "..", filepath.FromSlash(key)))
		if err != nil || fi.IsDir() == strings.HasSuffix(key, ".go") || s == 0 {
			t.Errorf("scope entry %q is not a directory or .go file of the module with a contract", key)
		}
	}
}

// TestLockGraphCrossesPackages: the module's lock graph holds the edges
// that only call summaries across packages produce, which a summary
// keyed by an imported object instead of its name would lose.
func TestLockGraphCrossesPackages(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	g := buildLockGraph(pkgs)
	for _, e := range []struct{ from, to, fn string }{
		{"fleet.ShardedFleet.mu", "walsink.Sink.mu", "killShard"},        // f.mu held across startShard, whose upload hook reaches the WAL
		{"fleet.ShardedFleet.mu", "amigo.registryShard.mu", "killShard"}, // f.mu held across amigo.NewServer
	} {
		w, ok := g.edges[e.from][e.to]
		if !ok || w.fn != e.fn {
			t.Errorf("lock graph edge %s → %s: witness %q (present %v), want one in %s", e.from, e.to, w.fn, ok, e.fn)
		}
	}
}
