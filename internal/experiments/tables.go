package experiments

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"

	"roamsim/internal/core"
	"roamsim/internal/fleet"
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
	fleet.RunPool(r.Cfg.workers(), len(jobs), func(j int) {
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

// Table4 reruns the paper's device-based campaign
// (fleet.DeviceCampaignPlan) the way the paper ran it — serially, one
// task per lease, on direct calls into a private AmiGo control server
// (fleet.RunInProcess) — and tallies, per country, the successful tests
// per tool and configuration, formatted <SIM> // <eSIM> like the paper.
func (r *Runner) Table4() (*report.Table, error) {
	camp, err := fleet.RunInProcess(r.W, fleet.DeviceCampaignPlan(), r.Cfg.Seed, "table4", true)
	if err != nil {
		return nil, err
	}
	ds, err := fleet.Ingest(r.W.Reg, camp)
	if err != nil {
		return nil, err
	}
	return fleet.Table4(ds, camp.Plan), nil
}
