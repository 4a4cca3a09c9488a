// Package cdnsim models the five CDN providers of the device campaign
// (Cloudflare, Google CDN, jQuery, jsDelivr, Microsoft Ajax): POP
// selection, edge caching, and the object the campaign fetches —
// jquery.min.js v3.6.0, ~30 KB on the wire.
//
// A fetch's timing is dominated by the device↔POP RTT (handshakes plus a
// few slow-start rounds for a small object), which is why the paper's
// CDN download times track the roaming architecture so closely; the
// cache model adds the MISS-rate asymmetry observed in Thailand.
package cdnsim

import (
	"roamsim/internal/inet"
	"roamsim/internal/rng"
)

// ObjectBytes is the on-the-wire size of jquery.min.js v3.6.0 (gzip).
const ObjectBytes = 30288

// CacheStatus mirrors the X-Cache/CF-Cache-Status headers the campaign
// records.
type CacheStatus string

// Cache statuses.
const (
	CacheHit  CacheStatus = "HIT"
	CacheMiss CacheStatus = "MISS"
)

// Provider is one CDN network.
type Provider struct {
	// SP is the underlying service-provider deployment (edges, AS).
	SP *inet.ServiceProvider
	// HitRate is the probability an edge fetch is served from cache.
	HitRate float64
	// OriginPenaltyMedianMs is the median extra time a MISS spends
	// fetching from origin.
	OriginPenaltyMedianMs float64
}

// FetchResult is one measured CDN download, matching the curl timings
// and headers Table 1 lists.
type FetchResult struct {
	Provider   string
	EdgeCity   string
	Cache      CacheStatus
	DNSMs      float64 // resolution time, supplied by the DNS layer
	TransferMs float64 // connect + TLS + object transfer
	TotalMs    float64
	SizeBytes  int
}

// Fetch assembles a fetch result from its measured parts. transferMs is
// computed by the caller over the simulated path (netsim.DownloadTimeMs
// with 2 handshakes: TCP + TLS); cdnsim decides cache status and adds
// the origin penalty on a MISS.
func (p *Provider) Fetch(edge inet.Edge, dnsMs, transferMs float64, src *rng.Source) FetchResult {
	res := FetchResult{
		Provider:   p.SP.Name,
		EdgeCity:   edge.City,
		Cache:      CacheHit,
		DNSMs:      dnsMs,
		TransferMs: transferMs,
		SizeBytes:  ObjectBytes,
	}
	if !src.Bool(p.HitRate) {
		res.Cache = CacheMiss
		res.TransferMs += src.LogNormalMeanMedian(p.OriginPenaltyMedianMs, 0.4)
	}
	res.TotalMs = res.DNSMs + res.TransferMs
	return res
}

// ProviderNames are the five CDNs measured by the device campaign, in
// the order the paper's figures present them.
var ProviderNames = []string{
	"Cloudflare", "Google CDN", "jQuery CDN", "jsDelivr", "Microsoft Ajax",
}
