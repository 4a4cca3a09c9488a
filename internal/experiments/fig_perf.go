package experiments

import (
	"fmt"
	"net/http/httptest"

	"roamsim/internal/fleet"
	"roamsim/internal/ipx"
	"roamsim/internal/mno"
	"roamsim/internal/report"
	"roamsim/internal/rng"
	"roamsim/internal/stats"
	"roamsim/internal/webcampaign"
)

// Figure11Result bundles the latency comparison and its headline
// statistics.
type Figure11Result struct {
	Table *report.Table
	// HRInflation / IHBOInflation are the mean latency increases of
	// roaming eSIMs over their physical SIMs (the paper: 621% and 64%).
	HRInflation, IHBOInflation float64
	// ESIMFracAbove150 / SIMFracAbove150 are the "less desirable
	// latency" fractions (the paper: 14.5% vs 3%).
	ESIMFracAbove150, SIMFracAbove150 float64
	// RoamingTTestP is Welch's p-value for SIM vs roaming-eSIM RTTs;
	// NativeTTestP the same for the native-eSIM countries.
	RoamingTTestP, NativeTTestP float64
	// LeveneP tests variance homogeneity between SIM and eSIM RTTs.
	LeveneP float64
}

// Figure11 reports RTT to Facebook, Google (final traceroute hop) and
// Ookla per country and configuration, plus the paper's headline
// statistics.
func (r *Runner) Figure11() (*Figure11Result, error) {
	traces, err := r.Traces()
	if err != nil {
		return nil, err
	}
	speeds, err := r.Speedtests()
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title:   "Figure 11: RTT to Facebook / Google / Ookla",
		Headers: []string{"Country", "Config", "FB median (ms)", "GGL median (ms)", "Ookla median (ms)"},
	}
	// Collect per-country/config RTT sets.
	rttOf := func(iso string, kind mno.SIMKind, target string) []float64 {
		var v []float64
		for _, o := range traces {
			if o.ISO == iso && o.Kind == kind && o.Target == target {
				v = append(v, o.PA.FinalRTTms)
			}
		}
		return v
	}
	ooklaOf := func(iso string, kind mno.SIMKind) []float64 {
		var v []float64
		for _, o := range speeds {
			if o.ISO == iso && o.Kind == kind {
				v = append(v, o.LatencyMs)
			}
		}
		return v
	}
	var simAll, esimRoamAll, esimNativeAll, simNativeAll []float64
	var hrRatios, ihboRatios []float64
	for _, iso := range fleet.DeviceCountries {
		var arch ipx.Architecture
		for _, o := range traces {
			if o.ISO == iso && o.Kind == mno.ESIM {
				arch = o.Arch
				break
			}
		}
		for _, kind := range []mno.SIMKind{mno.PhysicalSIM, mno.ESIM} {
			fb, ggl := rttOf(iso, kind, "Facebook"), rttOf(iso, kind, "Google")
			ook := ooklaOf(iso, kind)
			if len(fb) == 0 {
				continue
			}
			t.AddRow(iso, configLabel(kind, arch),
				fmt.Sprintf("%.0f", stats.Median(fb)),
				fmt.Sprintf("%.0f", stats.Median(ggl)),
				fmt.Sprintf("%.0f", stats.Median(ook)))
			all := append(append([]float64{}, fb...), ggl...)
			switch {
			case kind == mno.PhysicalSIM && arch == ipx.Native:
				simNativeAll = append(simNativeAll, all...)
				simAll = append(simAll, all...)
			case kind == mno.PhysicalSIM:
				simAll = append(simAll, all...)
			case arch == ipx.Native:
				esimNativeAll = append(esimNativeAll, all...)
			default:
				esimRoamAll = append(esimRoamAll, all...)
			}
		}
		// Per-country inflation ratios (eSIM mean / SIM mean - 1).
		simMean := stats.Mean(append(rttOf(iso, mno.PhysicalSIM, "Google"), rttOf(iso, mno.PhysicalSIM, "Facebook")...))
		esimMean := stats.Mean(append(rttOf(iso, mno.ESIM, "Google"), rttOf(iso, mno.ESIM, "Facebook")...))
		if simMean > 0 && esimMean > 0 {
			ratio := esimMean/simMean - 1
			switch arch {
			case ipx.HR:
				hrRatios = append(hrRatios, ratio)
			case ipx.IHBO:
				ihboRatios = append(ihboRatios, ratio)
			}
		}
	}

	res := &Figure11Result{
		Table:            t,
		HRInflation:      stats.Mean(hrRatios),
		IHBOInflation:    stats.Mean(ihboRatios),
		ESIMFracAbove150: stats.FractionAbove(esimRoamAll, 150),
		SIMFracAbove150:  stats.FractionAbove(simAll, 150),
	}
	if tt, err := stats.WelchTTest(simAll, esimRoamAll); err == nil {
		res.RoamingTTestP = tt.P
	}
	if tt, err := stats.WelchTTest(simNativeAll, esimNativeAll); err == nil {
		res.NativeTTestP = tt.P
	}
	if _, p, err := stats.LeveneTest(simAll, esimRoamAll); err == nil {
		res.LeveneP = p
	}
	return res, nil
}

// Figure12Result holds the private-latency-fraction CDFs.
type Figure12Result struct {
	Series []report.Series
	// MedianFraction per group label.
	MedianFraction map[string]float64
}

// Figure12 reports the fraction of end-to-end latency spent before the
// PGW, grouped by configuration: (a) native, (b) HR, (c) IHBO, each with
// the physical-SIM baseline.
func (r *Runner) Figure12() (*Figure12Result, error) {
	traces, err := r.Traces()
	if err != nil {
		return nil, err
	}
	groupOf := func(o TraceObs) string {
		if o.Kind == mno.PhysicalSIM {
			switch o.Arch {
			default:
			}
			// Group SIMs by their eSIM counterpart's panel.
			switch o.ISO {
			case "KOR", "THA":
				return "SIM (native panel)"
			case "PAK", "ARE":
				return "SIM (HR panel)"
			default:
				return "SIM (IHBO panel)"
			}
		}
		switch o.Arch {
		case ipx.Native:
			return "eSIM native"
		case ipx.HR:
			return "eSIM HR"
		default:
			return "eSIM IHBO"
		}
	}
	groups := map[string][]float64{}
	for _, o := range traces {
		groups[groupOf(o)] = append(groups[groupOf(o)], o.PA.PrivateFraction)
	}
	res := &Figure12Result{MedianFraction: map[string]float64{}}
	for _, name := range []string{
		"SIM (native panel)", "eSIM native",
		"SIM (HR panel)", "eSIM HR",
		"SIM (IHBO panel)", "eSIM IHBO",
	} {
		v := groups[name]
		if len(v) == 0 {
			continue
		}
		cdf := stats.CDF(v)
		s := report.Series{Name: name}
		for _, p := range cdf {
			s.X = append(s.X, p.X)
			s.Y = append(s.Y, p.P)
		}
		res.Series = append(res.Series, s)
		res.MedianFraction[name] = stats.Median(v)
	}
	return res, nil
}

// Figure13Result bundles the bandwidth analysis.
type Figure13Result struct {
	WebTable    *report.Table // (a) fast.com downloads, web campaign
	DeviceTable *report.Table // (b)(c) Ookla down/up, device campaign
	// Slow/fast shares for roaming eSIMs and their SIMs (paper: 78.8%
	// of roaming eSIM tests <= 15 Mbps; 4.5% >= 30; SIM 31.9% / 48%).
	ESIMSlowShare, ESIMFastShare float64
	SIMSlowShare, SIMFastShare   float64
}

// Figure13 reports download/upload speeds: the web campaign's fast.com
// runs and the device campaign's CQI-filtered Ookla runs.
func (r *Runner) Figure13() (*Figure13Result, error) {
	res := &Figure13Result{}

	// (a) web campaign via the real collection server.
	srv := webcampaign.NewServer("airalo")
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	src := rng.New(r.Cfg.Seed).Fork("fig13web")
	// One volunteer per country, streams pre-forked in canonical order,
	// executed on the worker pool; the server's per-country stats are
	// insensitive to upload order.
	isos := r.W.DeploymentKeys(true, false)
	vols := make([]*webcampaign.Volunteer, len(isos))
	for i, iso := range isos {
		vols[i] = &webcampaign.Volunteer{
			Name: "v-" + iso, BaseURL: hs.URL,
			Dep: r.W.Deployments[iso], Src: src.Fork(iso),
		}
	}
	volErrs := make([]error, len(vols))
	fleet.RunPool(r.Cfg.workers(), len(vols), func(i int) {
		for m := 0; m < r.Cfg.WebMeasurements; m++ {
			if err := vols[i].RunMeasurement(); err != nil {
				volErrs[i] = err
				return
			}
		}
	})
	for _, err := range volErrs {
		if err != nil {
			return nil, err
		}
	}
	byCountry := map[string][]float64{}
	for _, m := range srv.Completed() {
		byCountry[m.Country] = append(byCountry[m.Country], m.DownMbps)
	}
	wt := &report.Table{
		Title:   "Figure 13a: fast.com download speed, web campaign eSIMs",
		Headers: []string{"Country", "b-MNO", "Median (Mbps)", "Q1", "Q3"},
	}
	for _, iso := range r.W.DeploymentKeys(true, false) {
		v := byCountry[iso]
		if len(v) == 0 {
			continue
		}
		b := stats.NewBoxplot(v)
		wt.AddRow(iso, r.W.Deployments[iso].BMNO.Name,
			fmt.Sprintf("%.1f", b.Median), fmt.Sprintf("%.1f", b.Q1), fmt.Sprintf("%.1f", b.Q3))
	}
	res.WebTable = wt

	// (b)(c) device campaign, CQI-filtered.
	speeds, err := r.Speedtests()
	if err != nil {
		return nil, err
	}
	speeds = usable(speeds)
	dt := &report.Table{
		Title:   "Figure 13b/c: Ookla down/up (CQI >= 7), device campaign",
		Headers: []string{"Country", "Config", "Down median", "Down mean±CI", "Up median"},
	}
	var esimRoamDown, simDown []float64
	for _, iso := range fleet.DeviceCountries {
		// The country's eSIM architecture decides which bucket its
		// physical SIM contributes to (the paper compares SIMs in the
		// eight roaming-eSIM countries).
		var esimArch ipx.Architecture
		for _, o := range speeds {
			if o.ISO == iso && o.Kind == mno.ESIM {
				esimArch = o.Arch
				break
			}
		}
		for _, kind := range []mno.SIMKind{mno.PhysicalSIM, mno.ESIM} {
			var down, up []float64
			for _, o := range speeds {
				if o.ISO == iso && o.Kind == kind {
					down = append(down, o.Down)
					up = append(up, o.Up)
				}
			}
			if len(down) == 0 {
				continue
			}
			label := configLabel(kind, esimArch)
			if kind == mno.PhysicalSIM {
				label = "SIM"
			}
			mean, ci := stats.MeanCI(down, 1.96)
			dt.AddRow(iso, label,
				fmt.Sprintf("%.1f", stats.Median(down)),
				fmt.Sprintf("%.1f±%.2f", mean, ci),
				fmt.Sprintf("%.1f", stats.Median(up)))
			if esimArch != ipx.Native {
				if kind == mno.ESIM {
					esimRoamDown = append(esimRoamDown, down...)
				} else {
					simDown = append(simDown, down...)
				}
			}
		}
	}
	res.DeviceTable = dt
	res.ESIMSlowShare = stats.FractionBelow(esimRoamDown, 15)
	res.ESIMFastShare = stats.FractionAbove(esimRoamDown, 30)
	res.SIMSlowShare = stats.FractionBelow(simDown, 15)
	res.SIMFastShare = stats.FractionAbove(simDown, 30)
	return res, nil
}
