// Package dnssim models DNS resolution as seen by the campaigns: which
// resolver a session uses (the b-MNO's own resolver for SIM/native/HR
// configurations, Google's anycast for IHBO breakouts), where anycast
// lands (the resolver nearest the PGW, not the user), and how long a
// lookup takes including the DoH penalty the paper (accidentally) paid
// on IHBO eSIMs.
//
// The Identify function reproduces the Nextdns trick: a unique label
// forces a cache miss so the recursive resolver's unicast address becomes
// visible despite anycast.
package dnssim

import (
	"fmt"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/rng"
)

// Resolver is one recursive resolver deployment.
type Resolver struct {
	Name    string
	Addr    ipaddr.Addr // unicast address (what Nextdns reveals)
	ASN     ipreg.ASN
	City    string
	Country string // ISO3
	Loc     geo.Point
	// SupportsDoH reports whether the resolver accepts DNS over HTTPS.
	// MNO resolvers mostly don't (the paper's observation), so sessions
	// fall back to Do53 with them.
	SupportsDoH bool
}

// AnycastGroup is a set of resolvers behind one service address
// (8.8.8.8): queries land on the instance nearest the network entry
// point — for a roaming session, the PGW.
type AnycastGroup struct {
	Name      string
	VIP       ipaddr.Addr
	Instances []Resolver // fixed once Nearest has been asked

	nearest geo.NearestMemo
}

// Nearest returns the instance closest to the given point, the first in
// Instances on a tie. It is safe for concurrent use.
func (g *AnycastGroup) Nearest(p geo.Point) (Resolver, error) {
	if len(g.Instances) == 0 {
		return Resolver{}, fmt.Errorf("dnssim: anycast group %s empty", g.Name)
	}
	i := g.nearest.Index(p, len(g.Instances), func(i int) geo.Point { return g.Instances[i].Loc })
	return g.Instances[i], nil
}

// Config is a session's DNS configuration.
type Config struct {
	// Resolver is the assigned unicast resolver (b-MNO case); nil when
	// the session uses an anycast group instead.
	Resolver *Resolver
	// Anycast is the anycast group used when Resolver is nil.
	Anycast *AnycastGroup
	// UseDoH enables DNS over HTTPS when the effective resolver
	// supports it (the Android-default behaviour the paper hit).
	UseDoH bool
}

// Effective resolves the configuration to a concrete resolver instance,
// given the session's internet entry point (PGW location). This is where
// the paper's "74% of IHBO DNS queries land in the PGW's country" comes
// from: anycast sees the query entering at the PGW.
func (c Config) Effective(pgwLoc geo.Point) (Resolver, error) {
	switch {
	case c.Resolver != nil:
		return *c.Resolver, nil
	case c.Anycast != nil:
		return c.Anycast.Nearest(pgwLoc)
	default:
		return Resolver{}, fmt.Errorf("dnssim: empty DNS config")
	}
}

// DoHActive reports whether the session will actually speak DoH (wanted
// and supported).
func (c Config) DoHActive(r Resolver) bool { return c.UseDoH && r.SupportsDoH }

// LookupResult is one measured DNS lookup.
type LookupResult struct {
	Resolver   Resolver
	DurationMs float64
	DoH        bool
	CacheHit   bool
}

// Timing parameters of the lookup model.
const (
	// cacheHitProb is the probability the recursive resolver already
	// holds the answer.
	cacheHitProb = 0.7
	// recursionMedianMs is the median upstream recursion time on a miss.
	recursionMedianMs = 35.0
)

// Lookup models one query: transport setup plus resolver RTT plus
// possible upstream recursion. rttToResolverMs is the measured round
// trip between the device and the resolver (through tunnels and all) —
// the caller computes it over the simulated path, so GTP inflation
// automatically dominates exactly as in Figure 14-b.
func Lookup(r Resolver, rttToResolverMs float64, doh bool, src *rng.Source) LookupResult {
	res := LookupResult{Resolver: r, DoH: doh}
	d := rttToResolverMs // the query/response exchange itself
	if doh {
		// TCP handshake (1 RTT) + TLS 1.3 (1 RTT) before the query, the
		// "cost of DNS-over-HTTPS" the paper cites.
		d += 2 * rttToResolverMs
		d += src.Uniform(2, 8) // TLS crypto + HTTP framing overhead
	}
	res.CacheHit = src.Bool(cacheHitProb)
	if !res.CacheHit {
		d += src.LogNormalMeanMedian(recursionMedianMs, 0.5)
	}
	res.DurationMs = src.Jitter(d, 0.1)
	return res
}

// Identify reproduces the Nextdns measurement: it returns the unicast
// resolver serving the session plus whether DoH is in use. The unique
// per-query label means the result is never masked by caching.
func Identify(c Config, pgwLoc geo.Point) (Resolver, bool, error) {
	r, err := c.Effective(pgwLoc)
	if err != nil {
		return Resolver{}, false, err
	}
	return r, c.DoHActive(r), nil
}
