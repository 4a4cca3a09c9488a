package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"

	"roamsim/internal/amigo"
	"roamsim/internal/core"
	"roamsim/internal/ipx"
	"roamsim/internal/report"
	"roamsim/internal/rng"
	"roamsim/internal/webcampaign"
)

// Table2 re-derives the paper's Table 2 purely from measurements: for
// every visited country, attach the eSIM repeatedly, classify the public
// IP, and group countries by (b-MNO, PGW provider set).
func (r *Runner) Table2() (*report.Table, error) {
	cl := &core.Classifier{Reg: r.W.Reg}
	src := rng.New(r.Cfg.Seed).Fork("table2")

	type row struct {
		bMNO      string
		bCountry  string
		providers map[string]bool
		countries map[string]bool
		arch      ipx.Architecture
		visited   []string
	}
	rows := map[string]*row{}
	for _, key := range r.W.DeploymentKeys(false, false) {
		d := r.W.Deployments[key]
		if d.BMNO.Name == d.VMNO.Name {
			continue // native eSIMs are not part of Table 2's roaming rows
		}
		entry, ok := rows[d.BMNO.Name]
		if !ok {
			entry = &row{
				bMNO: d.BMNO.Name, bCountry: d.BMNO.Country,
				providers: map[string]bool{}, countries: map[string]bool{},
			}
			rows[d.BMNO.Name] = entry
		}
		entry.visited = append(entry.visited, key)
		// Attach enough times to observe provider alternation.
		for i := 0; i < 12; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				return nil, err
			}
			c, err := cl.Classify(s.PublicIP, d.BMNO, d.VMNO)
			if err != nil {
				return nil, err
			}
			entry.providers[fmt.Sprintf("%s (%s)", c.PGWAS.Org, c.PGWAS.Number)] = true
			entry.countries[c.PGWCountry] = true
			entry.arch = c.Arch
		}
	}

	t := &report.Table{
		Title:   "Table 2: roaming eSIM inventory (re-derived from classified public IPs)",
		Headers: []string{"Visited Countries", "b-MNO (Country)", "PGW Provider(s) (ASN)", "PGW Country", "Type"},
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := rows[n]
		sort.Strings(e.visited)
		t.AddRow(
			strings.Join(e.visited, ", "),
			fmt.Sprintf("%s (%s)", e.bMNO, e.bCountry),
			joinSet(e.providers),
			joinSet(e.countries),
			string(e.arch),
		)
	}
	return t, nil
}

func joinSet(m map[string]bool) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// Table3 reruns the web-based campaign through the real collection
// server and reports completed measurements per country.
func (r *Runner) Table3() (*report.Table, error) {
	srv := webcampaign.NewServer("airalo")
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	src := rng.New(r.Cfg.Seed).Fork("table3")

	// Volunteer counts per country follow the paper's Table 3 (France
	// had two volunteers on non-overlapping dates).
	volunteers := map[string]int{"FRA": 2}
	attempted := map[string]int{}
	// Enumerate volunteers serially — forking each volunteer's stream and
	// pre-drawing its Wi-Fi flags in canonical order — then run them on
	// the worker pool. The server tallies counts, which are insensitive
	// to upload order, so the table is identical for any worker count.
	type volJob struct {
		vol    *webcampaign.Volunteer
		onWiFi []bool
	}
	var jobs []volJob
	for _, iso := range r.W.DeploymentKeys(true, false) {
		nVol := volunteers[iso]
		if nVol == 0 {
			nVol = 1
		}
		for v := 0; v < nVol; v++ {
			vol := &webcampaign.Volunteer{
				Name: fmt.Sprintf("vol-%s-%d", iso, v), BaseURL: hs.URL,
				Dep: r.W.Deployments[iso], Src: src.Fork(iso + fmt.Sprint(v)),
			}
			flags := make([]bool, r.Cfg.WebMeasurements)
			for i := range flags {
				attempted[iso]++
				// Volunteers occasionally measure from Wi-Fi; the vision
				// check rejects those uploads.
				flags[i] = src.Bool(0.12)
			}
			jobs = append(jobs, volJob{vol: vol, onWiFi: flags})
		}
	}
	runParallel(r.Cfg.workers(), len(jobs), func(j int) {
		for _, w := range jobs[j].onWiFi {
			jobs[j].vol.OnWiFi = w
			_ = jobs[j].vol.RunMeasurement() // rejected attempts simply don't count
		}
	})
	completed := srv.CompletedByCountry()

	t := &report.Table{
		Title:   "Table 3: web-based campaign overview",
		Headers: []string{"Country", "# Volunteers", "Attempted", "# Measurements"},
	}
	for _, iso := range r.W.DeploymentKeys(true, false) {
		nVol := volunteers[iso]
		if nVol == 0 {
			nVol = 1
		}
		t.AddRow(iso, nVol, attempted[iso], completed[iso])
	}
	return t, nil
}

// Table4 reruns the device-based campaign through an in-process AmiGo
// control server: per country, the number of successful tests per tool
// and configuration, formatted <SIM> // <eSIM> like the paper.
func (r *Runner) Table4() (*report.Table, error) {
	srv := amigo.NewServer(nil)
	src := rng.New(r.Cfg.Seed).Fork("table4")

	kinds := []amigo.Task{
		{Kind: "speedtest"},
		{Kind: "mtr", Target: "Facebook"},
		{Kind: "mtr", Target: "Google"}, // YouTube also resolves to Google edges
		{Kind: "cdn", Target: "Cloudflare"},
		{Kind: "cdn", Target: "Google CDN"},
		{Kind: "cdn", Target: "jQuery CDN"},
		{Kind: "cdn", Target: "jsDelivr"},
		{Kind: "cdn", Target: "Microsoft Ajax"},
		{Kind: "video"},
	}
	labels := []string{
		"Ookla", "MTR(FB)", "MTR(GGL)",
		"CDN(CF)", "CDN(GGL)", "CDN(jQ)", "CDN(jsD)", "CDN(MS)", "Video",
	}
	const perTool = 4

	for _, iso := range deviceCountries {
		ep := amigo.NewEndpoint("me-"+iso, "", r.W.Deployments[iso], src.Fork(iso))
		ep.Transport = amigo.DirectTransport{Server: srv}
		if err := ep.Register(); err != nil {
			return nil, err
		}
		ep.Heartbeat()
		for _, base := range kinds {
			for _, config := range []string{"sim", "esim"} {
				for i := 0; i < perTool; i++ {
					task := base
					task.Config = config
					if _, err := srv.ScheduleBatch("me-"+iso, []amigo.Task{task}); err != nil {
						return nil, err
					}
				}
			}
		}
		for {
			n, err := ep.RunBatch(1)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
		}
	}

	// Tally successes per (country, tool, config).
	type cell struct{ sim, esim int }
	counts := map[string]map[string]*cell{}
	for _, res := range srv.Results() {
		if !res.OK {
			continue
		}
		iso := strings.TrimPrefix(res.ME, "me-")
		label := labelFor(res, labels)
		if counts[iso] == nil {
			counts[iso] = map[string]*cell{}
		}
		if counts[iso][label] == nil {
			counts[iso][label] = &cell{}
		}
		if res.Config == "sim" {
			counts[iso][label].sim++
		} else {
			counts[iso][label].esim++
		}
	}

	t := &report.Table{
		Title:   "Table 4: device-based campaign (successful tests, <SIM> // <eSIM>)",
		Headers: append([]string{"Country"}, labels...),
	}
	for _, iso := range deviceCountries {
		row := []any{iso}
		for _, label := range labels {
			c := counts[iso][label]
			if c == nil {
				c = &cell{}
			}
			row = append(row, fmt.Sprintf("%d // %d", c.sim, c.esim))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// labelFor maps a result back to its column label. MTR and CDN columns
// are disambiguated by target recorded in the payload; speedtest and
// video are unique.
func labelFor(res amigo.Result, labels []string) string {
	switch res.Kind {
	case "speedtest":
		return "Ookla"
	case "video":
		return "Video"
	case "mtr":
		if strings.Contains(string(res.Payload), `"target":"Facebook"`) {
			return "MTR(FB)"
		}
		return "MTR(GGL)"
	case "cdn":
		switch {
		case strings.Contains(string(res.Payload), "Cloudflare"):
			return "CDN(CF)"
		case strings.Contains(string(res.Payload), "Google CDN"):
			return "CDN(GGL)"
		case strings.Contains(string(res.Payload), "jQuery CDN"):
			return "CDN(jQ)"
		case strings.Contains(string(res.Payload), "jsDelivr"):
			return "CDN(jsD)"
		default:
			return "CDN(MS)"
		}
	}
	return res.Kind
}
