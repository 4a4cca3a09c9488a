package measure

import (
	"strings"
	"testing"

	"roamsim/internal/airalo"
	"roamsim/internal/core"
	"roamsim/internal/ipx"
	"roamsim/internal/rng"
	"roamsim/internal/stats"
	"roamsim/internal/video"
)

var sharedWorld *airalo.World

func world(t testing.TB) *airalo.World {
	t.Helper()
	if sharedWorld == nil {
		w, err := airalo.Build(11)
		if err != nil {
			t.Fatal(err)
		}
		sharedWorld = w
	}
	return sharedWorld
}

func esim(t testing.TB, iso string, src *rng.Source) *airalo.Session {
	t.Helper()
	s, err := world(t).Deployments[iso].AttachESIM(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sim(t *testing.T, iso string, src *rng.Source) *airalo.Session {
	t.Helper()
	s, err := world(t).Deployments[iso].AttachSIM(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTracerouteDemarcates(t *testing.T) {
	src := rng.New(1)
	w := world(t)
	tr, err := Traceroute(esim(t, "DEU", src), TargetGoogle, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Raw.Hops) < 4 {
		t.Fatalf("too few hops: %d", len(tr.Raw.Hops))
	}
	pa, err := core.Demarcate(tr.Raw, w.Reg)
	if err != nil {
		t.Fatal(err)
	}
	if pa.PGW.AS.Number != 54825 && pa.PGW.AS.Number != 16276 {
		t.Errorf("German eSIM PGW AS = %s, want Packet Host or OVH", pa.PGW.AS.Number)
	}
	if _, err := Traceroute(esim(t, "DEU", src), "Nope", src); err == nil {
		t.Error("unknown SP should error")
	}
}

func TestPingHRMuchSlowerThanSIM(t *testing.T) {
	src := rng.New(2)
	var esimRTT, simRTT []float64
	for i := 0; i < 40; i++ {
		e, err := Ping(esim(t, "PAK", src), TargetGoogle, src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Ping(sim(t, "PAK", src), TargetGoogle, src)
		if err != nil {
			t.Fatal(err)
		}
		esimRTT = append(esimRTT, e)
		simRTT = append(simRTT, s)
	}
	me, ms := stats.Median(esimRTT), stats.Median(simRTT)
	// The Pakistan HR disparity: eSIM RTT several times the SIM RTT.
	if me < ms*3 {
		t.Errorf("PAK eSIM median RTT %.0f should be >= 3x SIM %.0f", me, ms)
	}
	if me < 150 {
		t.Errorf("PAK HR eSIM should exceed 150 ms, got %.0f", me)
	}
}

func TestSpeedtestCapsAndRadio(t *testing.T) {
	src := rng.New(3)
	var fiveG []float64
	for i := 0; i < 150; i++ {
		res, err := Speedtest(esim(t, "GEO", src), src)
		if err != nil {
			t.Fatal(err)
		}
		if res.DownMbps <= 0 || res.UpMbps <= 0 || res.LatencyMs <= 0 {
			t.Fatal("degenerate speedtest")
		}
		if res.Radio.CQI < 1 || res.Radio.CQI > 15 {
			t.Fatal("bad radio sample")
		}
		if res.Radio.Usable() && res.Radio.RAT == "5G" {
			fiveG = append(fiveG, res.DownMbps)
		}
	}
	if len(fiveG) < 20 {
		t.Fatalf("too few usable 5G samples: %d", len(fiveG))
	}
	med := stats.Median(fiveG)
	// Georgia eSIM 5G ≈ 31.7 Mbps in the paper; ours is calibrated to it.
	if med < 20 || med > 40 {
		t.Errorf("GEO eSIM 5G median = %.1f, want ~31.7", med)
	}
}

func TestSpeedtestServerNearPGW(t *testing.T) {
	src := rng.New(4)
	// The French eSIM breaks out in Virginia: Ookla server selection
	// follows the public IP, not the user.
	res, err := Speedtest(esim(t, "FRA", src), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerCity != "Ashburn" && res.ServerCity != "Dallas" && res.ServerCity != "Miami" {
		t.Errorf("FRA eSIM speedtest server = %s, want a US city near the Virginia PGW", res.ServerCity)
	}
	// The SIM in Pakistan tests against a local server.
	resSIM, err := Speedtest(sim(t, "PAK", src), src)
	if err != nil {
		t.Fatal(err)
	}
	if resSIM.ServerCity != "Islamabad" {
		t.Errorf("PAK SIM speedtest server = %s, want Islamabad", resSIM.ServerCity)
	}
}

func TestCDNFetchOrdering(t *testing.T) {
	src := rng.New(5)
	mean := func(iso string, kind string) float64 {
		var sum float64
		const n = 25
		for i := 0; i < n; i++ {
			var s *airalo.Session
			if kind == "esim" {
				s = esim(t, iso, src)
			} else {
				s = sim(t, iso, src)
			}
			r, err := CDNFetch(s, "Cloudflare", src)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.TotalMs
		}
		return sum / n
	}
	pakESIM := mean("PAK", "esim")
	pakSIM := mean("PAK", "sim")
	deuESIM := mean("DEU", "esim")
	korESIM := mean("KOR", "esim")
	// HR ≫ IHBO > native, and HR eSIM ≫ its physical SIM.
	if pakESIM < pakSIM*2 {
		t.Errorf("PAK eSIM CDN time %.0f should be >= 2x SIM %.0f", pakESIM, pakSIM)
	}
	if pakESIM < deuESIM {
		t.Errorf("HR CDN time %.0f should exceed IHBO %.0f", pakESIM, deuESIM)
	}
	if deuESIM < korESIM {
		t.Errorf("IHBO CDN time %.0f should exceed native %.0f", deuESIM, korESIM)
	}
	if _, err := CDNFetch(esim(t, "PAK", src), "NopeCDN", src); err == nil {
		t.Error("unknown CDN should error")
	}
}

func TestDNSLookupArchitectureEffects(t *testing.T) {
	src := rng.New(6)
	mean := func(s *airalo.Session) float64 {
		var sum float64
		const n = 30
		for i := 0; i < n; i++ {
			r, err := DNSLookup(s, src)
			if err != nil {
				t.Fatal(err)
			}
			sum += r.DurationMs
		}
		return sum / n
	}
	hr := mean(esim(t, "PAK", src))
	hrSIM := mean(sim(t, "PAK", src))
	ihbo := mean(esim(t, "DEU", src))
	ihboSIM := mean(sim(t, "DEU", src))
	if hr < hrSIM*3 {
		t.Errorf("HR DNS %.0f should be >= 3x SIM %.0f (paper: +610%%)", hr, hrSIM)
	}
	if ihbo < ihboSIM {
		t.Errorf("IHBO DNS %.0f should exceed SIM %.0f", ihbo, ihboSIM)
	}
	// IHBO resolver is Google in the PGW country.
	r, err := DNSLookup(esim(t, "DEU", src), src)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resolver.ASN != 15169 {
		t.Errorf("IHBO resolver AS = %v, want Google", r.Resolver.ASN)
	}
	if !r.DoH {
		t.Error("IHBO lookups use DoH (the forgotten Android default)")
	}
	// SIM lookups stay unencrypted on the MNO resolver.
	rs, err := DNSLookup(sim(t, "PAK", src), src)
	if err != nil {
		t.Fatal(err)
	}
	if rs.DoH {
		t.Error("MNO resolvers don't speak DoH")
	}
}

func TestStreamVideoDifferentiation(t *testing.T) {
	src := rng.New(7)
	cfg := video.Config{DurationSec: 150}
	// Pakistan (HR, YouTube-capped): constant 720p despite either SIM.
	stPAK, err := StreamVideo(esim(t, "PAK", src), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if stPAK.Share("1080p") > 0.2 {
		t.Errorf("PAK eSIM 1080p share = %.2f, the YouTube cap should hold it at 720p", stPAK.Share("1080p"))
	}
	// Saudi SIM (137 Mbps, generous cap) reaches 1080p+ much more often
	// than its eSIM.
	stSAUsim, err := StreamVideo(sim(t, "SAU", src), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	stSAUesim, err := StreamVideo(esim(t, "SAU", src), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	hi := func(st video.Stats) float64 {
		return st.Share("1080p") + st.Share("1440p") + st.Share("2160p")
	}
	if hi(stSAUsim) <= hi(stSAUesim) {
		t.Errorf("SAU SIM high-res share %.2f should exceed eSIM %.2f", hi(stSAUsim), hi(stSAUesim))
	}
}

func TestPGWHopRTTIHBOFasterThanHR(t *testing.T) {
	src := rng.New(8)
	med := func(iso string) float64 {
		var v []float64
		for i := 0; i < 30; i++ {
			r, err := PGWHopRTT(esim(t, iso, src), src)
			if err != nil {
				t.Fatal(err)
			}
			v = append(v, r)
		}
		return stats.Median(v)
	}
	if hr, ihbo := med("ARE"), med("QAT"); ihbo >= hr {
		t.Errorf("QAT IHBO PGW RTT %.0f should beat ARE HR %.0f (similar distances)", ihbo, hr)
	}
}

func TestGeorgiaPacketHostPenalty(t *testing.T) {
	src := rng.New(9)
	w := world(t)
	byProvider := map[string][]float64{}
	for i := 0; i < 200; i++ {
		s, err := w.Deployments["GEO"].AttachESIM(src)
		if err != nil {
			t.Fatal(err)
		}
		rtt, err := PGWHopRTT(s, src)
		if err != nil {
			t.Fatal(err)
		}
		byProvider[s.Provider.Name] = append(byProvider[s.Provider.Name], rtt)
	}
	ph := stats.Median(byProvider["Packet Host"])
	ovh := stats.Median(byProvider["OVH SAS"])
	if ph <= ovh {
		t.Errorf("in Georgia Packet Host (%.0f) should be slower than OVH (%.0f)", ph, ovh)
	}
	// And the reverse in Germany.
	byProvider = map[string][]float64{}
	for i := 0; i < 200; i++ {
		s, _ := w.Deployments["DEU"].AttachESIM(src)
		rtt, err := PGWHopRTT(s, src)
		if err != nil {
			t.Fatal(err)
		}
		byProvider[s.Provider.Name] = append(byProvider[s.Provider.Name], rtt)
	}
	ph = stats.Median(byProvider["Packet Host"])
	ovh = stats.Median(byProvider["OVH SAS"])
	if ph >= ovh {
		t.Errorf("in Germany Packet Host (%.0f) should beat OVH (%.0f) despite more hops", ph, ovh)
	}
}

func TestArchesVisible(t *testing.T) {
	src := rng.New(10)
	if esim(t, "PAK", src).Arch != ipx.HR {
		t.Error("PAK eSIM should be HR")
	}
	if esim(t, "DEU", src).Arch != ipx.IHBO {
		t.Error("DEU eSIM should be IHBO")
	}
	if esim(t, "THA", src).Arch != ipx.Native {
		t.Error("THA eSIM should be native")
	}
}

func TestHypotheticalLBO(t *testing.T) {
	src := rng.New(12)
	w := world(t)
	d := w.Deployments["PAK"]
	lbo, err := d.AttachHypotheticalLBO(src)
	if err != nil {
		t.Fatal(err)
	}
	if lbo.Arch != ipx.LBO {
		t.Errorf("arch = %s, want LBO", lbo.Arch)
	}
	if lbo.Kind != "esim" {
		t.Errorf("kind = %s", lbo.Kind)
	}
	// LBO keeps the roamer policy caps but kills the tunnel latency.
	if lbo.DownCapMbps != d.Spec.ESIMDown {
		t.Errorf("LBO should keep eSIM caps, got %f", lbo.DownCapMbps)
	}
	rttLBO, err := Ping(lbo, TargetGoogle, src)
	if err != nil {
		t.Fatal(err)
	}
	rttHR, err := Ping(esim(t, "PAK", src), TargetGoogle, src)
	if err != nil {
		t.Fatal(err)
	}
	if rttLBO >= rttHR/2 {
		t.Errorf("LBO RTT %f should be far below HR %f", rttLBO, rttHR)
	}
	// Web-only countries have no modeled v-MNO network for LBO.
	if _, err := w.Deployments["FRA"].AttachHypotheticalLBO(src); err == nil {
		t.Error("LBO on a web-only country should error")
	}
}

func TestFormatMTR(t *testing.T) {
	src := rng.New(13)
	tr, err := Traceroute(esim(t, "PAK", src), TargetGoogle, src)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatMTR(tr)
	if !strings.Contains(out, "HOST: PAK/esim -> Google") {
		t.Errorf("header missing:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != len(tr.Raw.Hops)+1 {
		t.Errorf("lines = %d, hops = %d", lines, len(tr.Raw.Hops))
	}
	if !strings.Contains(out, "1.|--") {
		t.Errorf("mtr row format missing:\n%s", out)
	}
	// A silent German CG-NAT shows as ???.
	var sawSilent bool
	for i := 0; i < 10 && !sawSilent; i++ {
		trDE, err := Traceroute(esim(t, "DEU", src), TargetGoogle, src)
		if err != nil {
			t.Fatal(err)
		}
		sawSilent = strings.Contains(FormatMTR(trDE), "???")
	}
	if !sawSilent {
		t.Error("silent hops should render as ??? for the Packet Host CG-NAT")
	}
}

// TestSpeedtestDownMbpsMatchesSpeedtest: the video sampler's variant
// reads Speedtest's download rate and leaves the stream where Speedtest
// leaves it — the next draw is the same — on every device-campaign
// session, SIM and eSIM, of the worlds at seeds 42 and 7, towards the
// YouTube and the Ookla edge, at the session's own caps (where the RTT's
// draws are mostly skipped) and uncapped (where the Mathis bound binds).
// 300 calls a stream cross its closed-form draws and its register fill.
func TestSpeedtestDownMbpsMatchesSpeedtest(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		w, err := airalo.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		src, sessions := rng.New(seed), 0
		for _, key := range w.DeploymentKeys(false, true) {
			d := w.Deployments[key]
			for _, attach := range []func(*rng.Source) (*airalo.Session, error){d.AttachESIM, d.AttachSIM} {
				s, err := attach(src)
				if err != nil {
					continue // a SIM in an eSIM-only country
				}
				sessions++
				for _, sp := range []string{TargetYouTube, TargetOokla} {
					edge, err := w.SPs[sp].NearestEdge(s.Site.Loc)
					if err != nil {
						t.Fatal(err)
					}
					path, err := s.PathTo(edge.Server)
					if err != nil {
						t.Fatal(err)
					}
					for _, caps := range [][2]float64{{s.DownCapMbps, s.UpCapMbps}, {0, 0}} {
						streamSeed := src.ForkSeed(key)
						full, down := rng.New(streamSeed), rng.New(streamSeed)
						for i := 0; i < 300; i++ {
							want := w.Net.Speedtest(path, caps[0], caps[1], full).DownloadMbps
							if got := w.Net.SpeedtestDownMbps(path, caps[0], caps[1], down); got != want {
								t.Fatalf("seed %d, %s/%s to %s, caps %v, call %d: %v Mbps, Speedtest reads %v", seed, key, s.Kind, sp, caps, i, got, want)
							}
							if g, w := down.Float64(), full.Float64(); g != w {
								t.Fatalf("seed %d, %s/%s to %s, caps %v, call %d: next draw %v, after Speedtest %v", seed, key, s.Kind, sp, caps, i, g, w)
							}
						}
					}
				}
			}
		}
		if sessions < 10 {
			t.Fatalf("seed %d: %d device-campaign sessions", seed, sessions)
		}
	}
}

// BenchmarkStreamVideo is one device-campaign video task's measurement:
// 120 s of playback over a Pakistani eSIM session (home-routed, the
// longest paths of the campaign), each segment's throughput a
// SpeedtestDownMbps draw.
func BenchmarkStreamVideo(b *testing.B) {
	src := rng.New(1)
	s := esim(b, "PAK", src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StreamVideo(s, video.Config{DurationSec: 120}, src); err != nil {
			b.Fatal(err)
		}
	}
}
