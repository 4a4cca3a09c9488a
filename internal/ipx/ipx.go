// Package ipx models the IP Packet Exchange ecosystem: the providers
// that interconnect mobile operators, the PGW infrastructure they (and
// third parties) host, and the pre-configured breakout agreements that
// decide where a roaming session's traffic reaches the public internet.
//
// The paper's central infrastructural finding lives here: PGW selection
// is *static*, arranged per b-MNO, and frequently geographically
// suboptimal. PickBreakout applies that policy; GeoNearestSelector is
// the geo-nearest alternative the ablation benchmark uses to quantify
// what static arrangements cost.
package ipx

import (
	"fmt"
	"slices"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/rng"
)

// Architecture is a roaming data-path architecture (Figure 1).
type Architecture string

// The three roaming architectures.
const (
	HR   Architecture = "HR"   // home-routed: break out at the b-MNO
	LBO  Architecture = "LBO"  // local breakout: break out at the v-MNO
	IHBO Architecture = "IHBO" // IPX hub breakout: third-party PGW
)

// Native marks a non-roaming configuration (v-MNO == b-MNO); it is not a
// roaming architecture but shares the label space in reports.
const Native Architecture = "native"

// PGWSite is one location where a provider hosts PGWs.
type PGWSite struct {
	City    string
	Country string // ISO3
	Loc     geo.Point
	// Addrs are the PGW IP addresses at this site. Observing these (as
	// the first public traceroute hop) is how the paper counts PGWs.
	Addrs []ipaddr.Addr
}

// AssignmentPolicy is how a provider maps sessions to PGW addresses
// within a site, reproducing Section 4.3.2's observation that OVH pins
// addresses per b-MNO while Packet Host balances uniformly.
type AssignmentPolicy string

// Assignment policies.
const (
	AssignPerBMNO AssignmentPolicy = "per-bmno" // fixed subset per issuer
	AssignUniform AssignmentPolicy = "uniform"  // any address, any issuer
	AssignSticky  AssignmentPolicy = "sticky"   // one address for everyone
)

// PGWProvider is an organization hosting PGWs reachable over the IPX
// network: an IPX-P, a cloud host, or (for HR) the b-MNO itself.
type PGWProvider struct {
	Name   string
	ASN    ipreg.ASN
	Sites  []PGWSite
	Policy AssignmentPolicy
	// PrivateHops is the provider-core depth before the CG-NAT: the
	// number of private hops a traceroute sees inside this provider
	// (OVH ≈ 3, Packet Host ≈ 6-7, Singtel HR ≈ 8).
	PrivateHops int
	// CGNATSilent marks providers whose CG-NAT drops ICMP, producing the
	// single-ASN traceroutes of Figure 6.
	CGNATSilent bool
	// Assignments optionally pins issuers to PGW address subsets when
	// Policy is AssignPerBMNO (the OVH arrangement: Telna Mobile pinned
	// to one address, Play alternating among the other five). Issuers
	// not listed fall back to the full address set.
	Assignments map[string][]ipaddr.Addr
}

// Site returns the site hosting the given address.
func (p *PGWProvider) Site(addr ipaddr.Addr) (PGWSite, bool) {
	for _, s := range p.Sites {
		for _, a := range s.Addrs {
			if a == addr {
				return s, true
			}
		}
	}
	return PGWSite{}, false
}

// Breakout is a resolved breakout decision for one session.
type Breakout struct {
	Arch     Architecture
	Provider *PGWProvider
	Site     PGWSite
	Addr     ipaddr.Addr // the PGW address serving the session
}

// AgreementOption names one (provider, site) pair a b-MNO's arrangement
// allows, with a weight; a session's choice alternates among the
// options (Play and Telna Mobile alternated between Packet Host/NLD and
// OVH/FRA).
type AgreementOption struct {
	Provider *PGWProvider
	SiteCity string // must match a provider site's City
	Weight   float64
}

// GeoNearestSelector is the counterfactual policy for the ablation: pick
// the candidate site closest to the user among ALL providers' sites in
// the pool, the "dynamic routing" IHBO theoretically enables.
type GeoNearestSelector struct {
	Arch Architecture
	Pool []*PGWProvider
}

// Select picks the breakout by minimizing great-circle distance to the
// user.
func (g *GeoNearestSelector) Select(bMNO string, userLoc geo.Point, src *rng.Source) (Breakout, error) {
	if len(g.Pool) == 0 {
		return Breakout{}, fmt.Errorf("ipx: empty provider pool")
	}
	var best Breakout
	bestDist := -1.0
	for _, p := range g.Pool {
		for _, site := range p.Sites {
			if len(site.Addrs) == 0 {
				continue
			}
			d := geo.DistanceKm(userLoc, site.Loc)
			if bestDist < 0 || d < bestDist {
				addr, err := pickAddr(p, bMNO, site.Addrs, src)
				if err != nil {
					continue
				}
				best = Breakout{Arch: g.Arch, Provider: p, Site: site, Addr: addr}
				bestDist = d
			}
		}
	}
	if bestDist < 0 {
		return Breakout{}, fmt.Errorf("ipx: no usable site in pool")
	}
	return best, nil
}

// PickBreakout resolves one session's breakout from the b-MNO's
// pre-arranged option list, applying option weights and the chosen
// provider's assignment policy. The user's location plays no part —
// that is the finding. A visited country's arrangement may restrict
// the list (e.g. Saudi Arabia's Telna eSIM using Packet Host only).
func PickBreakout(arch Architecture, options []AgreementOption, bMNO string, src *rng.Source) (Breakout, error) {
	if len(options) == 0 {
		return Breakout{}, fmt.Errorf("ipx: no breakout options")
	}
	opt := pickOption(options, src)
	site, addrs := siteOf(opt.Provider, opt.SiteCity)
	if len(addrs) == 0 {
		return Breakout{}, fmt.Errorf("ipx: provider %s has no site %q", opt.Provider.Name, opt.SiteCity)
	}
	addr, err := pickAddr(opt.Provider, bMNO, addrs, src)
	if err != nil {
		return Breakout{}, err
	}
	return Breakout{Arch: arch, Provider: opt.Provider, Site: site, Addr: addr}, nil
}

// pickOption draws one option by weight, a zero weight counting as 1.
// The weights live on the stack for the handful of options an agreement
// lists, so a session's draw allocates nothing.
func pickOption(options []AgreementOption, src *rng.Source) AgreementOption {
	var stack [8]float64
	weights := stack[:0]
	for _, opt := range options {
		w := opt.Weight
		if w == 0 {
			w = 1
		}
		weights = append(weights, w)
	}
	return options[src.WeightedIndex(weights)]
}

func siteOf(p *PGWProvider, city string) (PGWSite, []ipaddr.Addr) {
	for _, s := range p.Sites {
		if s.City == city {
			return s, s.Addrs
		}
	}
	return PGWSite{}, nil
}

// pickAddr applies the provider's assignment policy.
func pickAddr(p *PGWProvider, bMNO string, addrs []ipaddr.Addr, src *rng.Source) (ipaddr.Addr, error) {
	if len(addrs) == 0 {
		return 0, fmt.Errorf("ipx: no PGW addresses at %s", p.Name)
	}
	switch p.Policy {
	case AssignSticky:
		return addrs[0], nil
	case AssignPerBMNO:
		// Intersect the pinned set with the site's addresses so the
		// assignment respects the chosen site; a pinned set is a few
		// addresses, so the intersection lives on the stack.
		var stack [8]ipaddr.Addr
		usable := stack[:0]
		for _, a := range p.Assignments[bMNO] {
			if slices.Contains(addrs, a) {
				usable = append(usable, a)
			}
		}
		if len(usable) > 0 {
			return rng.Pick(src, usable), nil
		}
		return rng.Pick(src, addrs), nil
	default: // AssignUniform
		return rng.Pick(src, addrs), nil
	}
}
