package experiments

import (
	"net/http/httptest"
	"strings"
	"testing"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/fleet"
	"roamsim/internal/ipx"
	"roamsim/internal/shard"
)

// The runner is shared across tests: the campaigns are the expensive
// part and every figure reads from the same memoized datasets, exactly
// like the real analysis pipeline.
var shared *Runner

func runner(t *testing.T) *Runner {
	t.Helper()
	if shared == nil {
		cfg := DefaultConfig()
		cfg.TracesPerCountry = 15
		cfg.SpeedtestsPerCountry = 30
		cfg.CDNFetchesPerCountry = 8
		cfg.DNSPerCountry = 20
		cfg.VideosPerCountry = 5
		cfg.WebMeasurements = 5
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shared = r
	}
	return shared
}

func TestTable2Rederivation(t *testing.T) {
	tab, err := runner(t).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("Table 2 rows = %d, want 6 b-MNOs", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"Singtel", "Play", "Telna Mobile", "Telecom Italia", "Orange", "Polkomtel",
		"AS45143", "AS54825", "AS16276", "AS51320", "AS393559", "HR", "IHBO"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
	if strings.Contains(s, "LBO") {
		t.Error("no LBO should be observed (paper found none)")
	}
}

func TestTable3Counts(t *testing.T) {
	tab, err := runner(t).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 14 {
		t.Fatalf("Table 3 rows = %d, want 14 web-campaign countries", len(tab.Rows))
	}
	// France has two volunteers; completed <= attempted everywhere.
	var sawFrance bool
	for _, row := range tab.Rows {
		if row[0] == "FRA" {
			sawFrance = true
			if row[1] != "2" {
				t.Errorf("France volunteers = %s, want 2", row[1])
			}
		}
	}
	if !sawFrance {
		t.Error("France missing from Table 3")
	}
}

func TestTable4AllToolsSucceed(t *testing.T) {
	tab, err := runner(t).Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("Table 4 rows = %d, want 10 device-campaign countries", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "4 // 4") {
		t.Errorf("expected full success cells '4 // 4' in:\n%s", s)
	}
}

// TestFleetTable4MatchesExperiments is the acceptance check: the
// device-campaign plan driven through the fleet control plane
// regenerates exactly the Table 4 the in-process experiments runner
// produces for the same seed.
func TestFleetTable4MatchesExperiments(t *testing.T) {
	const testSeed = 21
	w, err := airalo.Build(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWith(w, Config{Seed: testSeed})
	wantTable, err := r.Table4()
	if err != nil {
		t.Fatal(err)
	}
	srv := amigo.NewServer(nil)
	hs := httptest.NewServer(shard.Mount(srv.Handler(), srv.AdminHandler()))
	t.Cleanup(hs.Close)
	d := &fleet.Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 8,
		StreamLabel: "table4", Heartbeat: true}
	camp, err := d.Run(w, fleet.DeviceCampaignPlan())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fleet.Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	got := fleet.Table4(ds, camp.Plan).String()
	if want := wantTable.String(); got != want {
		t.Fatalf("fleet Table 4 differs from experiments Table 4:\nfleet:\n%s\nexperiments:\n%s", got, want)
	}
}

func TestFigure3Spans(t *testing.T) {
	tab, err := runner(t).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// 21 roaming eSIMs; alternating ones contribute one row per site.
	if len(tab.Rows) < 21 {
		t.Errorf("Figure 3 rows = %d, want >= 21", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "solid (HR)") || !strings.Contains(s, "dashed (IHBO)") {
		t.Error("Figure 3 must show both line styles")
	}
}

func TestFigure4Suboptimality(t *testing.T) {
	tab, err := runner(t).Figure4()
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	// France and Uzbekistan must appear (Ashburn breakouts) and be
	// flagged suboptimal (Amsterdam would be closer).
	for _, iso := range []string{"FRA", "UZB"} {
		found := false
		for _, row := range tab.Rows {
			if row[0] == iso {
				found = true
				if row[2] != "Ashburn" {
					t.Errorf("%s PGW site = %s, want Ashburn", iso, row[2])
				}
				if row[6] != "YES" {
					t.Errorf("%s should be flagged suboptimal", iso)
				}
			}
		}
		if !found {
			t.Errorf("%s missing from Figure 4:\n%s", iso, s)
		}
	}
}

func TestFigure5Pipeline(t *testing.T) {
	res, err := runner(t).Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recall < 1 {
		t.Errorf("recall = %f, mining must find every Airalo user", res.Recall)
	}
	if res.Precision < 0.8 {
		t.Errorf("precision = %f", res.Precision)
	}
	air := res.DataMedians["airalo (inferred)"]
	nat := res.DataMedians["native"]
	play := res.DataMedians["play roamers"]
	if air < nat*0.7 || air > nat*1.4 {
		t.Errorf("inferred Airalo data median %f should track native %f", air, nat)
	}
	if play > nat*0.7 {
		t.Errorf("Play roamers %f should differ from native %f", play, nat)
	}
	if res.SigMedians["airalo (inferred)"] <= res.SigMedians["native"] {
		t.Error("Airalo signalling should run slightly above native")
	}
}

func TestFigure6TwoASNs(t *testing.T) {
	tab, err := runner(t).Figure6()
	if err != nil {
		t.Fatal(err)
	}
	// Most traceroutes see about two unique ASNs (provider + SP).
	twoish := 0
	total := 0
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			if cell == "2" || cell == "3" {
				twoish++
			}
			if cell != "-" {
				total++
			}
		}
	}
	if total == 0 || float64(twoish)/float64(total) < 0.5 {
		t.Errorf("expected mostly 2-3 unique ASNs, got %d/%d:\n%s", twoish, total, tab)
	}
}

func TestFigure7PrivatePathOrdering(t *testing.T) {
	tab, err := runner(t).Figure7()
	if err != nil {
		t.Fatal(err)
	}
	med := map[string]float64{}
	for _, row := range tab.Rows {
		med[row[0]+"/"+row[2]] = atof(row[3])
	}
	// Roaming eSIMs have much longer private paths than their SIMs.
	if med["PAK/esim"] <= med["PAK/sim"] {
		t.Errorf("PAK: eSIM private path %v should exceed SIM %v", med["PAK/esim"], med["PAK/sim"])
	}
	// HR (Singtel) private paths are the longest.
	if med["PAK/esim"] <= med["GEO/esim"] {
		t.Errorf("HR private path %v should exceed IHBO %v", med["PAK/esim"], med["GEO/esim"])
	}
}

func TestFigure8UAEBeatsPakistan(t *testing.T) {
	res, err := runner(t).Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if res.Medians["ARE"] >= res.Medians["PAK"] {
		t.Errorf("UAE median %f should beat Pakistan %f", res.Medians["ARE"], res.Medians["PAK"])
	}
}

func TestFigure9ProviderContrast(t *testing.T) {
	res, err := runner(t).Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if res.Medians["DEU/PH"] >= res.Medians["DEU/OS"] {
		t.Errorf("Germany: PH %f should beat OVH %f", res.Medians["DEU/PH"], res.Medians["DEU/OS"])
	}
	if res.Medians["ESP/PH"] >= res.Medians["ESP/OS"] {
		t.Errorf("Spain: PH %f should beat OVH %f", res.Medians["ESP/PH"], res.Medians["ESP/OS"])
	}
	if res.Medians["GEO/PH"] <= res.Medians["GEO/OS"] {
		t.Errorf("Georgia: PH %f should LOSE to OVH %f", res.Medians["GEO/PH"], res.Medians["GEO/OS"])
	}
}

func TestFigure10PublicPaths(t *testing.T) {
	tab, err := runner(t).Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 30 {
		t.Errorf("Figure 10 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if atof(row[3]) < 1 {
			t.Errorf("public path median < 1 hop in %v", row)
		}
	}
}

func TestFigure11Headlines(t *testing.T) {
	res, err := runner(t).Figure11()
	if err != nil {
		t.Fatal(err)
	}
	// Shape: HR inflation an order of magnitude above IHBO inflation
	// (paper: 621% vs 64%).
	if res.HRInflation < 4*res.IHBOInflation {
		t.Errorf("HR inflation %.2f should dwarf IHBO %.2f", res.HRInflation, res.IHBOInflation)
	}
	if res.HRInflation < 1.5 {
		t.Errorf("HR inflation = %.2f, want > 150%%", res.HRInflation)
	}
	if res.IHBOInflation < 0.1 || res.IHBOInflation > 2.5 {
		t.Errorf("IHBO inflation = %.2f, want modest", res.IHBOInflation)
	}
	// 150 ms exceedance: eSIM well above SIM.
	if res.ESIMFracAbove150 <= res.SIMFracAbove150 {
		t.Errorf("eSIM >150ms fraction %.3f should exceed SIM %.3f",
			res.ESIMFracAbove150, res.SIMFracAbove150)
	}
	// Significance mirrors the paper: roaming difference significant,
	// native difference not.
	if res.RoamingTTestP > 0.01 {
		t.Errorf("roaming t-test p = %g, want significant", res.RoamingTTestP)
	}
	if res.NativeTTestP < 0.01 {
		t.Errorf("native t-test p = %g, want non-significant", res.NativeTTestP)
	}
}

// TestSeedZeroIsASeed checks Config.Seed is taken as given: seed 0
// builds its own world and campaigns, not a silent alias of the
// default seed 42.
func TestSeedZeroIsASeed(t *testing.T) {
	fig11 := func(seed int64) string {
		r, err := NewRunner(Config{Seed: seed, TracesPerCountry: 3, SpeedtestsPerCountry: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Figure11()
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.String()
	}
	if fig11(0) == fig11(42) {
		t.Fatal("a Seed: 0 runner printed seed 42's Figure 11")
	}
}

func TestFigure12PrivateFractions(t *testing.T) {
	res, err := runner(t).Figure12()
	if err != nil {
		t.Fatal(err)
	}
	hr := res.MedianFraction["eSIM HR"]
	ihbo := res.MedianFraction["eSIM IHBO"]
	native := res.MedianFraction["eSIM native"]
	if hr < 0.9 {
		t.Errorf("HR private fraction median = %.2f, want >= 0.9 (the 98%% finding)", hr)
	}
	if !(hr > ihbo && ihbo > native) {
		t.Errorf("fractions should order HR (%.2f) > IHBO (%.2f) > native (%.2f)", hr, ihbo, native)
	}
}

func TestFigure13BandwidthShares(t *testing.T) {
	res, err := runner(t).Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WebTable.Rows) < 10 {
		t.Errorf("web table rows = %d", len(res.WebTable.Rows))
	}
	// Paper shape: most roaming eSIM tests are slow (<=15), few fast;
	// SIMs are much better off.
	if res.ESIMSlowShare < 0.5 {
		t.Errorf("eSIM slow share = %.2f, want majority", res.ESIMSlowShare)
	}
	if res.ESIMSlowShare <= res.SIMSlowShare {
		t.Errorf("eSIM slow share %.2f should exceed SIM %.2f", res.ESIMSlowShare, res.SIMSlowShare)
	}
	if res.SIMFastShare <= res.ESIMFastShare {
		t.Errorf("SIM fast share %.2f should exceed eSIM %.2f", res.SIMFastShare, res.ESIMFastShare)
	}
}

func TestFigure14aCDNOrdering(t *testing.T) {
	res, err := runner(t).Figure14a()
	if err != nil {
		t.Fatal(err)
	}
	hr := res.MeanByArch[ipx.HR]
	ihbo := res.MeanByArch[ipx.IHBO]
	native := res.MeanByArch[ipx.Native]
	if !(hr > ihbo && ihbo > native) {
		t.Errorf("CDN means should order HR (%.0f) > IHBO (%.0f) > native (%.0f)", hr, ihbo, native)
	}
}

func TestFigure14bDNS(t *testing.T) {
	res, err := runner(t).Figure14b()
	if err != nil {
		t.Fatal(err)
	}
	// Most IHBO lookups land in the PGW's country (paper: 74%).
	if res.GoogleResolverShareSameCountry < 0.5 {
		t.Errorf("same-country resolver share = %.2f, want majority", res.GoogleResolverShareSameCountry)
	}
	// HR DNS inflation enormous; every roaming country slower on eSIM.
	if res.MedianIncrease["PAK"] < 2 {
		t.Errorf("PAK DNS increase = %.2f, want > 200%%", res.MedianIncrease["PAK"])
	}
	for iso, inc := range res.MedianIncrease {
		if iso == "KOR" || iso == "THA" {
			continue // native: no inflation expected
		}
		if inc < 0 {
			t.Errorf("%s eSIM DNS should not beat its SIM (%.2f)", iso, inc)
		}
	}
}

func TestFigure15Resolutions(t *testing.T) {
	tab, err := runner(t).Figure15()
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "720p") {
		t.Fatalf("table lacks 720p column:\n%s", s)
	}
	if len(tab.Rows) < 10 {
		t.Errorf("rows = %d", len(tab.Rows))
	}
	// Shape checks against the paper: 720p is the most common rung
	// overall; the HR countries sit at constant 720p on BOTH SIMs
	// (traffic differentiation); Germany/Qatar/KSA eSIMs stream 1080p
	// less often than their SIMs.
	share := map[string]map[string]float64{} // "ISO/config" -> rung -> share
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		share[key] = map[string]float64{
			"480p": atof(row[2]), "720p": atof(row[3]),
			"1080p": atof(row[4]), "1440p": atof(row[5]),
		}
	}
	var sum720, sum1080 float64
	for _, m := range share {
		sum720 += m["720p"]
		sum1080 += m["1080p"]
	}
	if sum720 <= sum1080 {
		t.Errorf("720p (%f) should be the most common rung overall vs 1080p (%f)", sum720, sum1080)
	}
	for _, key := range []string{"PAK/SIM", "PAK/eSIM/HR", "ARE/SIM", "ARE/eSIM/HR"} {
		if m, ok := share[key]; ok && m["720p"] < 90 {
			t.Errorf("%s should hold constant 720p, got %v", key, m)
		}
	}
	for _, iso := range []string{"DEU", "QAT", "SAU"} {
		simHi := share[iso+"/SIM"]["1080p"] + share[iso+"/SIM"]["1440p"]
		esimHi := share[iso+"/eSIM/IHBO"]["1080p"] + share[iso+"/eSIM/IHBO"]["1440p"]
		if esimHi >= simHi {
			t.Errorf("%s: eSIM high-res share %.0f%% should be below SIM %.0f%%", iso, esimHi, simHi)
		}
	}
}

func TestFigure16Evolution(t *testing.T) {
	tab, err := runner(t).Figure16()
	if err != nil {
		t.Fatal(err)
	}
	var asiaRow, euRow, njRow []string
	for _, row := range tab.Rows {
		switch row[0] {
		case "Asia":
			asiaRow = row
		case "Europe":
			euRow = row
		case "NorthAmerica (NJ vantage)":
			njRow = row
		}
	}
	if asiaRow == nil || euRow == nil || njRow == nil {
		t.Fatalf("missing rows:\n%s", tab)
	}
	// Asia rises ~Apr 1 (col 1 -> col 3/4); Europe ~half North America.
	if atof(asiaRow[4]) <= atof(asiaRow[1])*1.05 {
		t.Errorf("Asia should rise: %v", asiaRow)
	}
}

func TestFigure17ProviderOrdering(t *testing.T) {
	res, err := runner(t).Figure17()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Medians
	if !(m["Airhub"] < m["MobiMatter"] && m["MobiMatter"] < m["Airalo"] && m["Airalo"] < m["Keepgo"]) {
		t.Errorf("provider ordering broken: %v", m)
	}
	// Local SIMs are the cheapest per GB.
	if res.LocalSIMMedianPerGB >= m["Airalo"] {
		t.Errorf("local SIM per-GB %.2f should undercut Airalo %.2f", res.LocalSIMMedianPerGB, m["Airalo"])
	}
}

func TestFigure18And19(t *testing.T) {
	t18, err := runner(t).Figure18()
	if err != nil {
		t.Fatal(err)
	}
	if len(t18.Rows) < 12 {
		t.Errorf("Figure 18 rows = %d", len(t18.Rows))
	}
	t19, err := runner(t).Figure19()
	if err != nil {
		t.Fatal(err)
	}
	if len(t19.Rows) < 10 {
		t.Errorf("Figure 19 rows = %d", len(t19.Rows))
	}
	if !strings.Contains(t19.String(), "Play") {
		t.Error("Figure 19 must group by b-MNO")
	}
}

func TestFigure20FourProviders(t *testing.T) {
	tabs, err := runner(t).Figure20()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 4 {
		t.Fatalf("tables = %d, want 4", len(tabs))
	}
}

func TestAblationPGWSelection(t *testing.T) {
	tab, err := runner(t).AblationPGWSelection()
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "SUMMARY") {
		t.Fatalf("missing summary:\n%s", s)
	}
	// France's Ashburn breakout is the canonical waste case.
	found := false
	for _, row := range tab.Rows {
		if row[0] == "FRA" && row[1] == "Ashburn" {
			found = true
		}
	}
	if !found {
		t.Error("France/Ashburn missing from ablation")
	}
}

func TestAblationPolicyCaps(t *testing.T) {
	tab, err := runner(t).AblationPolicyCaps()
	if err != nil {
		t.Fatal(err)
	}
	// Uncapped must be >= capped everywhere.
	for _, row := range tab.Rows {
		if len(row) < 4 || row[2] == "" || row[3] == "" || strings.HasPrefix(row[0], "IHBO") {
			continue
		}
		if atof(row[3]) < atof(row[2])*0.9 {
			t.Errorf("uncapped below capped in %v", row)
		}
	}
}

func TestAblationPeering(t *testing.T) {
	tab, err := runner(t).AblationPeering()
	if err != nil {
		t.Fatal(err)
	}
	// Peering cost must be positive and large for Pakistan (the worst
	// agreement), small for e.g. Germany/Packet Host.
	var pak, deu float64
	for _, row := range tab.Rows {
		if row[0] == "PAK" {
			pak = atof(row[4])
		}
		if row[0] == "DEU" && row[1] == "Packet Host" {
			deu = atof(row[4])
		}
	}
	if pak < 50 {
		t.Errorf("PAK peering cost = %.0f ms, want large", pak)
	}
	if deu > pak/2 {
		t.Errorf("DEU/PH peering cost %.0f should be far below PAK %.0f", deu, pak)
	}
}

func TestValidation(t *testing.T) {
	tab, err := runner(t).Validation()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[4] != "YES" {
			t.Errorf("validation failed for %s: inferred %s", row[0], row[2])
		}
	}
}

func atof(s string) float64 {
	var v float64
	var neg bool
	i := 0
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	frac := 0.0
	div := 1.0
	seenDot := false
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			if seenDot {
				div *= 10
				frac += float64(c-'0') / div
			} else {
				v = v*10 + float64(c-'0')
			}
		case c == '.':
			seenDot = true
		default:
			i = len(s)
		}
	}
	v += frac
	if neg {
		return -v
	}
	return v
}

func TestAblationLBO(t *testing.T) {
	tab, err := runner(t).AblationLBO()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		iso, arch := row[0], row[1]
		today, lbo := atof(row[2]), atof(row[3])
		switch arch {
		case "HR", "IHBO":
			if lbo >= today {
				t.Errorf("%s (%s): LBO RTT %f should beat today's %f", iso, arch, lbo, today)
			}
		case "native":
			// Native already breaks out locally: LBO ~= today.
			if lbo > today*1.5 {
				t.Errorf("%s native: LBO %f should be similar to today %f", iso, lbo, today)
			}
		}
	}
}

func TestDiscussionJurisdiction(t *testing.T) {
	tab, err := runner(t).DiscussionJurisdiction()
	if err != nil {
		t.Fatal(err)
	}
	byISO := map[string]string{}
	for _, row := range tab.Rows {
		byISO[row[0]] = row[4]
	}
	// Roaming eSIMs egress abroad — except the USA one, whose Webbing
	// PGW is in Dallas (domestic). Native eSIMs stay local.
	for _, iso := range []string{"DEU", "PAK", "FRA", "UZB", "KEN"} {
		if byISO[iso] != "YES" {
			t.Errorf("%s should be flagged foreign-jurisdiction", iso)
		}
	}
	for _, iso := range []string{"KOR", "MDV", "THA", "USA"} {
		if byISO[iso] != "no" {
			t.Errorf("%s eSIM should stay under local jurisdiction", iso)
		}
	}
	if !strings.Contains(tab.String(), "20/24") {
		t.Errorf("summary should report 20/24 foreign egress (USA egresses domestically):\n%s", tab)
	}
}

func TestSignalingBreakdown(t *testing.T) {
	tab, err := runner(t).SignalingBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	vals := map[string][2]float64{}
	for _, row := range tab.Rows {
		vals[row[0]] = [2]float64{atof(row[2]), atof(row[3])}
	}
	if vals["Play roamer"][0] <= vals["native (UK)"][0]*2 {
		t.Errorf("roamer attach (%f ms) should far exceed native (%f ms)",
			vals["Play roamer"][0], vals["native (UK)"][0])
	}
	if vals["Airalo on Play"][1] <= vals["native (UK)"][1] {
		t.Errorf("Airalo daily messages (%f) must exceed native (%f) — Figure 5b",
			vals["Airalo on Play"][1], vals["native (UK)"][1])
	}
}
