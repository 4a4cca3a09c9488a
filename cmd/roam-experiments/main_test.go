package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"roamsim/internal/experiments"
)

func runCmd(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var o, e bytes.Buffer
	err = run(args, &o, &e)
	return o.String(), e.String(), err
}

// TestExpStrayCommaIgnored checks an empty -exp entry is skipped, not
// reported as an unknown experiment named "".
func TestExpStrayCommaIgnored(t *testing.T) {
	want, _, err := runCmd(t, "-quick", "-exp", "fig3")
	if err != nil || want == "" {
		t.Fatalf("-exp fig3: err %v, %d bytes", err, len(want))
	}
	for _, exp := range []string{"fig3,", ",fig3", "fig3,,fig3"} {
		got, _, err := runCmd(t, "-quick", "-exp", exp)
		if err != nil {
			t.Fatalf("-exp %q: %v", exp, err)
		}
		if got != want {
			t.Errorf("-exp %q printed %q, want -exp fig3's output", exp, got)
		}
	}
}

// TestExpUnknownFailsFirst checks a misspelt name fails the command
// before any experiment runs or prints.
func TestExpUnknownFailsFirst(t *testing.T) {
	for _, exp := range []string{"fig3,fig99", "all,fig99", "fig99"} {
		out, _, err := runCmd(t, "-quick", "-exp", exp)
		if err == nil || !strings.Contains(err.Error(), "fig99") {
			t.Errorf("-exp %q: err %v, want one naming fig99", exp, err)
		}
		if out != "" {
			t.Errorf("-exp %q printed %d bytes before failing", exp, len(out))
		}
	}
}

// TestExpEmptySelection checks a selection that names nothing is an
// error rather than a silent no-op.
func TestExpEmptySelection(t *testing.T) {
	for _, exp := range []string{"", ",", " , "} {
		if out, _, err := runCmd(t, "-quick", "-exp", exp); err == nil || out != "" {
			t.Errorf("-exp %q: err %v, %d bytes printed; want an error and no output", exp, err, len(out))
		}
	}
}

// TestArtifactRegistry checks the registry the command and WriteAll
// share: names and file stems are unique, every part has exactly one
// shape, and -h lists every name.
func TestArtifactRegistry(t *testing.T) {
	_, help, err := runCmd(t, "-h")
	_, list, ok := strings.Cut(help, "Experiments:")
	if !errors.Is(err, flag.ErrHelp) || !ok {
		t.Fatalf("-h: err %v, usage without an experiment list:\n%s", err, help)
	}
	listed := map[string]bool{}
	for _, name := range strings.Fields(list) {
		listed[name] = true
	}

	r, err := experiments.NewRunner(experiments.Config{Seed: 42, TracesPerCountry: 2, SpeedtestsPerCountry: 2,
		CDNFetchesPerCountry: 1, DNSPerCountry: 2, VideosPerCountry: 1, WebMeasurements: 1})
	if err != nil {
		t.Fatal(err)
	}
	names, stems := map[string]bool{}, map[string]bool{}
	for _, a := range experiments.Artifacts {
		if names[a.Name] {
			t.Errorf("duplicate name %q", a.Name)
		}
		names[a.Name] = true
		if !listed[a.Name] {
			t.Errorf("-h does not list %q", a.Name)
		}
		parts, err := a.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, p := range parts {
			switch {
			case p.Stem == "" && p.Note != "" && p.Table == nil && p.Series == nil:
			case p.Stem != "" && p.Note == "" && (p.Table == nil) != (p.Series == nil):
				if stems[p.Stem] {
					t.Errorf("%s: duplicate file stem %q", a.Name, p.Stem)
				}
				stems[p.Stem] = true
			default:
				t.Errorf("%s: part %+v is not one table, one series set or one note", a.Name, p)
			}
		}
	}
}
