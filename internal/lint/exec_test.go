package lint

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRoamvetExitCodes builds the real roamvet binary, points it at
// scratch modules, and asserts the CLI behavior the Makefile and CI
// rely on: exit 1 naming every code on a module seeded with one
// violation per self-contained contract, exit 0 on a clean module, a
// parseable -json mode, and exit 2 naming the cause when the module
// does not type-check or the go command cannot build export data.
func TestRoamvetExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the roamvet binary")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "roamvet")
	build := exec.Command("go", "build", "-o", bin, "roamsim/cmd/roamvet")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building roamvet: %v\n%s", err, out)
	}

	// Scratch modules named roamsim so the deterministic-scope rules
	// apply; each file lands under internal/measure (in scope).
	seeded, err := os.ReadFile(filepath.Join("testdata", "src", "seeded", "seeded.go"))
	if err != nil {
		t.Fatal(err)
	}
	module := func(name, src string) string {
		mod := filepath.Join(tmp, name)
		dir := filepath.Join(mod, "internal", "measure")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mod, "go.mod"), []byte("module roamsim\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "measure.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return mod
	}
	mod := module("seeded", string(seeded))

	run := func(mod string, env []string, args ...string) (string, string, int) {
		cmd := exec.Command(bin, append(args, "-C", mod)...)
		cmd.Env = append(os.Environ(), env...)
		out, err := cmd.Output()
		code, stderr := 0, ""
		if ee, ok := err.(*exec.ExitError); ok {
			code, stderr = ee.ExitCode(), string(ee.Stderr)
		} else if err != nil {
			t.Fatalf("running roamvet %v: %v", args, err)
		}
		return string(out), stderr, code
	}

	out, _, code := run(mod, nil)
	if code != 1 {
		t.Fatalf("seeded module: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"ROAM003", "ROAM004", "ROAM007"} {
		if !strings.Contains(out, want) {
			t.Errorf("seeded module output missing %s:\n%s", want, out)
		}
	}

	clean := module("clean", "package measure\n\nfunc Twice(x int) int { return 2 * x }\n")
	if out, _, code := run(clean, nil); code != 0 {
		t.Fatalf("clean module: exit %d, want 0\n%s", code, out)
	}

	broken := module("broken", "package measure\n\nvar N int = \"many\"\n")
	if _, stderr, code := run(broken, nil); code != 2 || !strings.Contains(stderr, "type error") || !strings.Contains(stderr, `"many"`) {
		t.Fatalf("module with a type error: exit %d, want 2 naming the error\n%s", code, stderr)
	}

	if _, stderr, code := run(mod, []string{"GOCACHE=off"}); code != 2 || !strings.Contains(stderr, "go list") {
		t.Fatalf("GOCACHE=off: exit %d, want 2 naming the go command's failure\n%s", code, stderr)
	}

	out, _, code = run(mod, nil, "-json")
	if code != 1 {
		t.Fatalf("-json seeded module: exit %d, want 1\n%s", code, out)
	}
	var rep struct {
		Diagnostics []Diagnostic `json:"diagnostics"`
		Allows      []Allow      `json:"allows"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if len(rep.Diagnostics) < 4 {
		t.Fatalf("-json reported %d findings, want >= 4", len(rep.Diagnostics))
	}
	for _, d := range rep.Diagnostics {
		if d.File == "" || d.Line == 0 || !strings.HasPrefix(d.Code, "ROAM") {
			t.Errorf("malformed JSON diagnostic: %+v", d)
		}
	}
	if len(rep.Allows) != 1 {
		t.Fatalf("-json reported %d allows, want 1:\n%s", len(rep.Allows), out)
	}
	if a := rep.Allows[0]; a.Analyzer != "clockpurity" || a.Reason == "" || a.File == "" || a.Line == 0 {
		t.Errorf("malformed JSON allow entry: %+v", a)
	}

	out, _, code = run(mod, nil, "-allows")
	if code != 0 {
		t.Fatalf("-allows on seeded module: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "allow clockpurity:") || !strings.Contains(out, "exercises the allow inventory") {
		t.Errorf("-allows output missing the seeded waiver:\n%s", out)
	}
}

// TestAnalyzersFireOnRealMutants is the proof each analyzer earns its
// lines: for every analyzer, take one REAL file of the module, apply
// the one-line bug class the analyzer exists for, and assert that the
// unmutated package is clean under that analyzer (so the finding is the
// mutation's, not noise), that the mutant still type-checks under its
// real import path, and that the analyzer fires in the mutated file.
func TestAnalyzersFireOnRealMutants(t *testing.T) {
	rows := []struct {
		analyzer string
		pkg      string // module-relative package directory
		file     string
		old, new string // the mutation: old must occur exactly once
		want     string // substring of the expected diagnostic
	}{
		{
			analyzer: "rngfork", pkg: "internal/experiments", file: "parallel.go",
			old:  "results[i], errs[i] = units[i].run(srcs[i])",
			new:  "results[i], errs[i] = units[i].run(parent.Fork(units[i].label))",
			want: `*rng.Source "parent" captured by go closure`,
		},
		{
			analyzer: "maporder", pkg: "internal/obs", file: "prometheus.go",
			old:  "sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })\n",
			new:  "",
			want: `append to "fams" inside range over map`,
		},
		{
			analyzer: "bodyhygiene", pkg: "internal/fleet", file: "driver.go",
			old:  "defer amigo.DrainClose(resp)\n",
			new:  "",
			want: `response body of "resp" is never closed in fetchPage`,
		},
		{
			analyzer: "guardedfield", pkg: "internal/experiments", file: "experiments.go",
			old:  "Traces() ([]TraceObs, error) {\n\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n",
			new:  "Traces() ([]TraceObs, error) {\n",
			want: `field r.traces is guarded by "mu" but Traces does not acquire r.mu`,
		},
		{
			analyzer: "fsyncrename", pkg: "internal/walsink", file: "compact.go",
			old:  "if err := fsyncDir(s.dir); err != nil {\n\t\treturn st, err\n\t}\n\t",
			new:  "",
			want: "os.Rename in Compact is not followed on every successful path by a directory fsync",
		},
		{
			analyzer: "clockpurity", pkg: "internal/amigo", file: "endpoint.go",
			old:  "return vclock.SleepCtx(e.clock(), e.ctx(), d)",
			new:  "time.Sleep(d)\n\treturn nil",
			want: "time.Sleep in deterministic package roamsim/internal/amigo",
		},
		{
			analyzer: "gojoin", pkg: "internal/fleet", file: "driver.go",
			old:  "wg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n\t\t\tfor {\n\t\t\t\ti := int(next.Add(1)) - 1\n\t\t\t\tif i >= n {",
			new:  "go func() {\n\t\t\tdefer wg.Done()\n\t\t\tfor {\n\t\t\t\ti := int(next.Add(1)) - 1\n\t\t\t\tif i >= n {",
			want: "go statement in RunPool has no join path",
		},
		{
			// Append takes s.rd under s.mu; Compact takes s.mu under s.rd.
			analyzer: "lockorder", pkg: "internal/walsink", file: "walsink.go",
			old:  "s.mu.Lock()\n\tdefer s.mu.Unlock()\n\tif s.err != nil || s.closed {\n\t\ts.met.errors.Add(1)",
			new:  "s.mu.Lock()\n\tdefer s.mu.Unlock()\n\ts.rd.RLock()\n\tdefer s.rd.RUnlock()\n\tif s.err != nil || s.closed {\n\t\ts.met.errors.Add(1)",
			want: "walsink.Sink.mu → walsink.Sink.rd (Append at",
		},
	}

	root := filepath.Join("..", "..")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, row := range rows {
		covered[row.analyzer] = true
		t.Run(row.analyzer, func(t *testing.T) {
			analyzers := analyzersNamed(t, row.analyzer)
			importPath := "roamsim/" + row.pkg
			dir := filepath.Join(root, filepath.FromSlash(row.pkg))
			real, err := loader.LoadDir(dir, importPath)
			if err != nil {
				t.Fatal(err)
			}
			diags, _ := CheckModule([]*Package{real}, analyzers)
			for _, d := range diags {
				t.Errorf("unmutated %s has a finding: %s", row.pkg, d)
			}

			// The mutant: the package's files in a scratch dir, one of
			// them mutated, loaded under the real import path so the
			// analyzer's scope applies. Its imports read export data, so
			// the real package never enters its type-check.
			scratch := t.TempDir()
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				src, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if name == row.file {
					if n := strings.Count(string(src), row.old); n != 1 {
						t.Fatalf("mutation target occurs %d times in %s/%s, want exactly once", n, row.pkg, row.file)
					}
					src = []byte(strings.Replace(string(src), row.old, row.new, 1))
				}
				if err := os.WriteFile(filepath.Join(scratch, name), src, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			p, err := loader.LoadDir(scratch, importPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, terr := range p.TypeErrs {
				t.Fatalf("mutant does not type-check: %v", terr)
			}
			diags, _ = CheckModule([]*Package{p}, analyzers)
			for _, d := range diags {
				if d.Analyzer == row.analyzer && filepath.Base(d.File) == row.file && strings.Contains(d.Message, row.want) {
					return
				}
			}
			t.Errorf("%s did not fire on the mutant of %s/%s (want %q); got %d diagnostics:",
				row.analyzer, row.pkg, row.file, row.want, len(diags))
			for _, d := range diags {
				t.Logf("  %s", d)
			}
		})
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutant row", a.Name)
		}
	}
}
