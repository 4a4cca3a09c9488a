// Command roam-experiments regenerates the paper's tables and figures
// from the simulated Airalo world and prints them as text tables (or
// CSV with -csv).
//
// Usage:
//
//	roam-experiments [-seed N] [-exp name,...|all] [-csv] [-quick] [-workers N] [-out dir]
//
// -h lists the experiment names (experiments.Artifacts). -exp is checked
// before anything runs: empty entries are ignored, and an unknown name
// or a selection that names nothing is an error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"roamsim/internal/experiments"
	"roamsim/internal/report"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintln(os.Stderr, "roam-experiments:", err)
		os.Exit(1)
	}
}

// run is the command on its arguments; usage and flag errors go to
// stderr, everything else to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("roam-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "world seed (same seed = identical output)")
	exp := fs.String("exp", "all", "experiments to run (comma-separated names, or 'all')")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	quick := fs.Bool("quick", false, "smaller campaigns (faster, noisier)")
	out := fs.String("out", "", "export every artifact (txt+csv) into this directory and exit")
	workers := fs.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: roam-experiments [flags]")
		fs.PrintDefaults()
		fmt.Fprintln(stderr, "Experiments:")
		line := " "
		for _, a := range experiments.Artifacts {
			if len(line)+1+len(a.Name) > 72 {
				fmt.Fprintln(stderr, line)
				line = " "
			}
			line += " " + a.Name
		}
		fmt.Fprintln(stderr, line)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectArtifacts(*exp)
	if err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *quick {
		cfg.TracesPerCountry = 10
		cfg.SpeedtestsPerCountry = 20
		cfg.CDNFetchesPerCountry = 6
		cfg.DNSPerCountry = 15
		cfg.VideosPerCountry = 4
		cfg.WebMeasurements = 4
	}
	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}

	if *out != "" {
		files, err := r.WriteAll(*out)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d artifact files to %s\n", len(files), *out)
		return nil
	}

	for _, a := range selected {
		parts, err := a.Run(r)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, p := range parts {
			switch {
			case p.Table != nil && *csv:
				fmt.Fprint(stdout, p.Table.CSV())
			case p.Table != nil:
				fmt.Fprintln(stdout, p.Table.String())
			case p.Stem == "":
				fmt.Fprint(stdout, p.Note)
			case *csv: // CDF series print only as CSV
				fmt.Fprint(stdout, report.SeriesCSV(p.Series))
			}
		}
	}
	return nil
}

// selectArtifacts resolves -exp against the registry, in registry order.
func selectArtifacts(exp string) ([]experiments.Artifact, error) {
	wanted := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		if name = strings.TrimSpace(name); name != "" {
			wanted[name] = true
		}
	}
	all := wanted["all"]
	delete(wanted, "all")
	var selected []experiments.Artifact
	for _, a := range experiments.Artifacts {
		if all || wanted[a.Name] {
			selected = append(selected, a)
		}
		delete(wanted, a.Name)
	}
	if len(wanted) > 0 {
		unknown := make([]string, 0, len(wanted))
		for name := range wanted {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment(s): %s (see -h for the list)", strings.Join(unknown, ", "))
	}
	if len(selected) == 0 {
		return nil, errors.New("-exp names no experiment (see -h for the list)")
	}
	return selected, nil
}
