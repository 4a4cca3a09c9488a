package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"roamsim/internal/report"
)

// Artifact is one experiment of the paper's evaluation: the name
// roam-experiments -exp selects it by, and how to regenerate its output.
type Artifact struct {
	Name string
	Run  func(r *Runner) ([]Part, error)
}

// Part is one ordered piece of an artifact's output. Exactly one of
// three shapes:
//   - a table under a file stem (Stem and Table set);
//   - CDF series under a file stem (Stem and Series set);
//   - a note, the headline numbers printed beside the tables (Note set,
//     Stem empty) — the CLI prints it, WriteAll does not export it.
type Part struct {
	Stem   string
	Table  *report.Table
	Series []report.Series
	Note   string
}

func table(stem string, t *report.Table) Part    { return Part{Stem: stem, Table: t} }
func series(stem string, s []report.Series) Part { return Part{Stem: stem, Series: s} }
func note(format string, args ...any) Part       { return Part{Note: fmt.Sprintf(format, args...)} }

// one is a single-table artifact; its file stem is its name with '-'
// written '_'.
func one(name string, f func(*Runner) (*report.Table, error)) Artifact {
	stem := strings.ReplaceAll(name, "-", "_")
	return Artifact{Name: name, Run: func(r *Runner) ([]Part, error) {
		t, err := f(r)
		if err != nil {
			return nil, err
		}
		return []Part{table(stem, t)}, nil
	}}
}

// Artifacts is every experiment, in the order roam-experiments -exp all
// prints them and WriteAll exports them.
var Artifacts = []Artifact{
	one("table2", (*Runner).Table2),
	one("table3", (*Runner).Table3),
	one("table4", (*Runner).Table4),
	one("fig3", (*Runner).Figure3),
	one("fig4", (*Runner).Figure4),
	{"fig5", func(r *Runner) ([]Part, error) {
		res, err := r.Figure5()
		if err != nil {
			return nil, err
		}
		return []Part{table("fig5", res.Table),
			note("IMSI mining: %d ranges, precision %.2f, recall %.2f\n\n", res.MinedRanges, res.Precision, res.Recall)}, nil
	}},
	one("fig6", (*Runner).Figure6),
	one("fig7", (*Runner).Figure7),
	{"fig8", func(r *Runner) ([]Part, error) {
		res, err := r.Figure8()
		if err != nil {
			return nil, err
		}
		return []Part{
			note("Figure 8: CDF of RTT to Singtel PGWs (HR eSIMs)\nmedians: PAK=%.0f ms, UAE=%.0f ms\n", res.Medians["PAK"], res.Medians["ARE"]),
			series("fig8_cdf", res.Series), note("\n")}, nil
	}},
	{"fig9", func(r *Runner) ([]Part, error) {
		res, err := r.Figure9()
		if err != nil {
			return nil, err
		}
		head := "Figure 9: CDF of PGW RTT (IHBO eSIMs, OS=OVH, PH=Packet Host)\n"
		for _, k := range []string{"GEO/OS", "GEO/PH", "DEU/OS", "DEU/PH", "ESP/OS", "ESP/PH"} {
			head += fmt.Sprintf("  %s median = %.0f ms\n", k, res.Medians[k])
		}
		return []Part{{Note: head}, series("fig9_cdf", res.Series), note("\n")}, nil
	}},
	one("fig10", (*Runner).Figure10),
	{"fig11", func(r *Runner) ([]Part, error) {
		res, err := r.Figure11()
		if err != nil {
			return nil, err
		}
		return []Part{table("fig11", res.Table), note(
			"HR latency inflation: %.0f%% (paper: 621%%)\n"+
				"IHBO latency inflation: %.0f%% (paper: 64%%)\n"+
				">150 ms: eSIM %.1f%% vs SIM %.1f%% (paper: 14.5%% vs 3%%)\n"+
				"Welch t-test (SIM vs roaming eSIM): p = %.3g (paper: 7.7e-5)\n"+
				"Welch t-test (SIM vs native eSIM):  p = %.3g (paper: 0.152)\n"+
				"Levene variance test: p = %.3g (paper: 0.025)\n\n",
			res.HRInflation*100, res.IHBOInflation*100, res.ESIMFracAbove150*100, res.SIMFracAbove150*100,
			res.RoamingTTestP, res.NativeTTestP, res.LeveneP)}, nil
	}},
	{"fig12", func(r *Runner) ([]Part, error) {
		res, err := r.Figure12()
		if err != nil {
			return nil, err
		}
		head := "Figure 12: median fraction of latency that is private\n"
		for _, s := range res.Series {
			head += fmt.Sprintf("  %-22s %.2f\n", s.Name, res.MedianFraction[s.Name])
		}
		return []Part{{Note: head}, series("fig12_cdf", res.Series), note("\n")}, nil
	}},
	{"fig13", func(r *Runner) ([]Part, error) {
		res, err := r.Figure13()
		if err != nil {
			return nil, err
		}
		return []Part{table("fig13a_web", res.WebTable), table("fig13bc_device", res.DeviceTable), note(
			"roaming eSIM: slow %.1f%%, fast %.1f%% (paper: 78.8%% / 4.5%%)\n"+
				"physical SIM: slow %.1f%%, fast %.1f%% (paper: 31.9%% / 48%%)\n\n",
			res.ESIMSlowShare*100, res.ESIMFastShare*100, res.SIMSlowShare*100, res.SIMFastShare*100)}, nil
	}},
	{"fig14a", func(r *Runner) ([]Part, error) {
		res, err := r.Figure14a()
		if err != nil {
			return nil, err
		}
		return []Part{table("fig14a", res.Table), note(
			"eSIM mean download: native=%.0f ms, IHBO=%.0f ms, HR=%.0f ms (paper: ~300-500 / 1316 / 1781-3203)\n\n",
			res.MeanByArch["native"], res.MeanByArch["IHBO"], res.MeanByArch["HR"])}, nil
	}},
	{"fig14b", func(r *Runner) ([]Part, error) {
		res, err := r.Figure14b()
		if err != nil {
			return nil, err
		}
		return []Part{table("fig14b", res.Table), note(
			"IHBO lookups answered in PGW country: %.0f%% (paper: 74%%)\n\n", res.GoogleResolverShareSameCountry*100)}, nil
	}},
	one("fig15", (*Runner).Figure15),
	one("fig16", (*Runner).Figure16),
	one("fig17", func(r *Runner) (*report.Table, error) {
		res, err := r.Figure17()
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	}),
	one("fig18", (*Runner).Figure18),
	one("fig19", (*Runner).Figure19),
	{"fig20", func(r *Runner) ([]Part, error) {
		tabs, err := r.Figure20()
		if err != nil {
			return nil, err
		}
		parts := make([]Part, len(tabs))
		for i, t := range tabs {
			parts[i] = table(fmt.Sprintf("fig20_%d", i+1), t)
		}
		return parts, nil
	}},
	one("validation", (*Runner).Validation),
	one("ablation-pgw", (*Runner).AblationPGWSelection),
	one("ablation-policy", (*Runner).AblationPolicyCaps),
	one("ablation-peering", (*Runner).AblationPeering),
	one("ablation-lbo", (*Runner).AblationLBO),
	one("jurisdiction", (*Runner).DiscussionJurisdiction),
	one("signaling", (*Runner).SignalingBreakdown),
}

// WriteAll regenerates every artifact and writes each table as both an
// aligned text table (.txt) and CSV (.csv), and each set of CDF series
// as CSV, under dir, returning the list of files written. It is the
// library-level equivalent of running `roam-experiments -exp all` twice
// with and without -csv, minus the notes.
func (r *Runner) WriteAll(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	put := func(name, content string) error {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			return err
		}
		written = append(written, p)
		return nil
	}
	for _, a := range Artifacts {
		parts, err := a.Run(r)
		for _, p := range parts {
			if err != nil {
				break
			}
			switch {
			case p.Table != nil:
				if err = put(p.Stem+".txt", p.Table.String()); err == nil {
					err = put(p.Stem+".csv", p.Table.CSV())
				}
			case p.Stem != "":
				err = put(p.Stem+".csv", report.SeriesCSV(p.Series))
			}
		}
		if err != nil {
			return written, fmt.Errorf("experiments: export %s: %w", a.Name, err)
		}
	}
	return written, nil
}
