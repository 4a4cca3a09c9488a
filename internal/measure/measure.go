// Package measure implements the device-side measurement tools of
// Table 1 — speedtest, traceroute (mtr), CDN fetch (curl), DNS probe
// (Nextdns), and video streaming (stats-for-nerds) — evaluated against a
// session of the simulated Airalo world.
//
// Every function takes the Session under test and a deterministic
// random source; outputs are the raw observations the campaigns logged,
// which the core tomography package then analyzes.
package measure

import (
	"fmt"
	"strings"

	"roamsim/internal/airalo"
	"roamsim/internal/cdnsim"
	"roamsim/internal/dnssim"
	"roamsim/internal/mno"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
	"roamsim/internal/video"
)

// Targets of the traceroute/latency experiments.
const (
	TargetGoogle  = "Google"
	TargetYouTube = "Google" // YouTube is served from Google's edges
	TargetOokla   = "Ookla"
)

// radioDegradedFactor throttles throughput when the channel is poor
// (CQI below the QPSK threshold); such samples exist in the raw data and
// are filtered out by the paper's CQI >= 7 rule.
const radioDegradedFactor = 0.35

// TraceResult is one traceroute with its session context.
type TraceResult struct {
	Session *airalo.Session
	Target  string
	Raw     netsim.TracerouteResult
}

// Traceroute runs an mtr-style traceroute from the session's device to
// the named SP's nearest edge (anycast steering happens at the breakout,
// so "nearest" is relative to the PGW).
func Traceroute(s *airalo.Session, spName string, src *rng.Source) (TraceResult, error) {
	w := s.World()
	sp, ok := w.SPs[spName]
	if !ok {
		return TraceResult{}, fmt.Errorf("measure: unknown SP %q", spName)
	}
	edge, err := sp.NearestEdge(s.Site.Loc)
	if err != nil {
		return TraceResult{}, err
	}
	path, err := s.PathTo(edge.Server)
	if err != nil {
		return TraceResult{}, err
	}
	return TraceResult{Session: s, Target: spName, Raw: w.Net.Traceroute(path, src)}, nil
}

// Ping samples the RTT from the device to the named SP's nearest edge.
func Ping(s *airalo.Session, spName string, src *rng.Source) (float64, error) {
	w := s.World()
	sp, ok := w.SPs[spName]
	if !ok {
		return 0, fmt.Errorf("measure: unknown SP %q", spName)
	}
	edge, err := sp.NearestEdge(s.Site.Loc)
	if err != nil {
		return 0, err
	}
	path, err := s.PathTo(edge.Server)
	if err != nil {
		return 0, err
	}
	return w.Net.RTTms(path, src), nil
}

// SpeedtestResult is one Ookla-style measurement with radio context.
type SpeedtestResult struct {
	Session    *airalo.Session
	ServerCity string
	LatencyMs  float64
	DownMbps   float64
	UpMbps     float64
	Radio      mno.RadioSample
}

// Speedtest runs a bandwidth test against the Ookla server nearest the
// session's public breakout (which is how server selection behaves for
// roaming traffic: the speedtest provider sees the PGW's geolocation).
func Speedtest(s *airalo.Session, src *rng.Source) (SpeedtestResult, error) {
	w := s.World()
	ookla := w.SPs[TargetOokla]
	edge, err := ookla.NearestEdge(s.Site.Loc)
	if err != nil {
		return SpeedtestResult{}, err
	}
	path, err := s.PathTo(edge.Server)
	if err != nil {
		return SpeedtestResult{}, err
	}
	radio := s.Radio.Sample(src)
	down, up := s.DownCapMbps, s.UpCapMbps
	if radio.RAT == mno.RAT4G {
		// 4G carries lower policy grants than 5G on the same network.
		down *= 0.7
		up *= 0.75
	}
	if !radio.Usable() {
		down *= radioDegradedFactor
		up *= radioDegradedFactor
	}
	res := w.Net.Speedtest(path, down, up, src)
	return SpeedtestResult{
		Session: s, ServerCity: edge.City,
		LatencyMs: res.LatencyMs, DownMbps: res.DownloadMbps, UpMbps: res.UploadMbps,
		Radio: radio,
	}, nil
}

// CDNFetch downloads jquery.min.js from the named CDN provider: DNS
// resolution (through the session's resolver) followed by a TLS fetch
// from the nearest POP.
func CDNFetch(s *airalo.Session, providerName string, src *rng.Source) (cdnsim.FetchResult, error) {
	w := s.World()
	base, ok := w.CDNs[providerName]
	if !ok {
		return cdnsim.FetchResult{}, fmt.Errorf("measure: unknown CDN %q", providerName)
	}
	// The session's edge cache behaves per configuration (the Thailand
	// SIM-vs-eSIM MISS asymmetry), so the hit rate is session-scoped.
	provider := &cdnsim.Provider{
		SP: base.SP, HitRate: s.CDNHitRate,
		OriginPenaltyMedianMs: base.OriginPenaltyMedianMs,
	}
	dns, err := DNSLookup(s, src)
	if err != nil {
		return cdnsim.FetchResult{}, err
	}
	edge, err := base.SP.NearestEdge(s.Site.Loc)
	if err != nil {
		return cdnsim.FetchResult{}, err
	}
	path, err := s.PathTo(edge.Server)
	if err != nil {
		return cdnsim.FetchResult{}, err
	}
	transfer := w.Net.DownloadTimeMs(path, cdnsim.ObjectBytes,
		netsim.TransferOptions{Handshakes: 2, PolicyCapMbps: s.DownCapMbps}, src)
	return provider.Fetch(edge, dns.DurationMs, transfer, src), nil
}

// DNSLookup resolves a name through the session's DNS configuration and
// measures the lookup time, Nextdns-style.
func DNSLookup(s *airalo.Session, src *rng.Source) (dnssim.LookupResult, error) {
	w := s.World()
	resolver, doh, err := dnssim.Identify(s.DNS, s.Site.Loc)
	if err != nil {
		return dnssim.LookupResult{}, err
	}
	node, ok := w.ResolverNode(resolver.Addr)
	if !ok {
		return dnssim.LookupResult{}, fmt.Errorf("measure: resolver %s has no node", resolver.Addr)
	}
	path, err := s.PathTo(node)
	if err != nil {
		return dnssim.LookupResult{}, err
	}
	rtt := w.Net.RTTms(path, src)
	return dnssim.Lookup(resolver, rtt, doh, src), nil
}

// StreamVideo plays the 4K test video over the session and reports the
// stats-for-nerds summary. YouTube-specific policy caps (the paper's
// traffic-differentiation conjecture) apply here and only here.
func StreamVideo(s *airalo.Session, cfg video.Config, src *rng.Source) (video.Stats, error) {
	w := s.World()
	sp := w.SPs[TargetYouTube]
	edge, err := sp.NearestEdge(s.Site.Loc)
	if err != nil {
		return video.Stats{}, err
	}
	path, err := s.PathTo(edge.Server)
	if err != nil {
		return video.Stats{}, err
	}
	throughput := func() float64 {
		rate := w.Net.SpeedtestDownMbps(path, s.DownCapMbps, s.UpCapMbps, src)
		if s.YouTubeCapMbps > 0 && rate > s.YouTubeCapMbps {
			rate = s.YouTubeCapMbps
		}
		return rate
	}
	return video.Play(cfg, throughput, src)
}

// PGWHopRTT measures the RTT from the device to its assigned PGW (the
// Figure 8/9 quantity) without a full traceroute.
func PGWHopRTT(s *airalo.Session, src *rng.Source) (float64, error) {
	path, err := s.PathTo(s.PGWNode)
	if err != nil {
		return 0, err
	}
	return s.World().Net.RTTms(path, src), nil
}

// FormatMTR renders a traceroute in mtr's report style:
//
//	HOST: PAK/esim            Loss%  Snt  Best
//	  1.|-- 10.0.0.1           0.0%    3  14.2
//	  2.|-- ???               100.0    3   0.0
func FormatMTR(tr TraceResult) string {
	var b strings.Builder
	label := "?"
	if tr.Session != nil {
		label = fmt.Sprintf("%s/%s", tr.Session.D.Key, tr.Session.Kind)
	}
	fmt.Fprintf(&b, "HOST: %-22s Loss%%  Snt   Best\n", label+" -> "+tr.Target)
	for _, h := range tr.Raw.Hops {
		if h.Responded {
			fmt.Fprintf(&b, "%3d.|-- %-18s %5.1f%% %4d %6.1f\n", h.TTL, h.Addr, 0.0, 3, h.BestRTTms)
		} else {
			fmt.Fprintf(&b, "%3d.|-- %-18s %5.1f%% %4d %6.1f\n", h.TTL, "???", 100.0, 3, 0.0)
		}
	}
	return b.String()
}
