// Package ipx models the IP Packet Exchange ecosystem: the providers
// that interconnect mobile operators, the PGW infrastructure they (and
// third parties) host, and the pre-configured breakout agreements that
// decide where a roaming session's traffic reaches the public internet.
//
// The paper's central infrastructural finding lives here: PGW selection
// is *static*, arranged per b-MNO, and frequently geographically
// suboptimal. The Selector interface captures that policy, with a
// geo-nearest alternative implemented for the ablation benchmark that
// quantifies what static arrangements cost.
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

// AllAddrs returns every PGW address across the provider's sites.
func (p *PGWProvider) AllAddrs() []ipaddr.Addr {
	var out []ipaddr.Addr
	for _, s := range p.Sites {
		out = append(out, s.Addrs...)
	}
	return out
}

// Breakout is a resolved breakout decision for one session.
type Breakout struct {
	Arch     Architecture
	Provider *PGWProvider
	Site     PGWSite
	Addr     ipaddr.Addr // the PGW address serving the session
}

// Agreement is a pre-configured arrangement between a b-MNO and one or
// more PGW providers. For HR the single provider is the b-MNO itself and
// SiteCountry pins the home country.
type Agreement struct {
	BMNOName string
	Arch     Architecture
	// Options lists the provider+site pairs the agreement allows; the
	// session-level choice alternates among them (Play and Telna Mobile
	// alternated between Packet Host/NLD and OVH/FRA).
	Options []AgreementOption
}

// AgreementOption names one allowed (provider, site) pair with a weight.
type AgreementOption struct {
	Provider *PGWProvider
	SiteCity string // must match a provider site's City
	Weight   float64
}

// Validate checks the agreement's internal consistency.
func (a *Agreement) Validate() error {
	if len(a.Options) == 0 {
		return fmt.Errorf("ipx: agreement for %s has no options", a.BMNOName)
	}
	if a.Arch != HR && a.Arch != IHBO && a.Arch != LBO {
		return fmt.Errorf("ipx: agreement for %s has bad architecture %q", a.BMNOName, a.Arch)
	}
	for _, opt := range a.Options {
		if opt.Provider == nil {
			return fmt.Errorf("ipx: agreement for %s has nil provider", a.BMNOName)
		}
		if opt.Weight < 0 {
			return fmt.Errorf("ipx: agreement for %s has negative weight", a.BMNOName)
		}
		found := false
		for _, s := range opt.Provider.Sites {
			if s.City == opt.SiteCity {
				if len(s.Addrs) == 0 {
					return fmt.Errorf("ipx: site %s of %s has no PGW addresses", s.City, opt.Provider.Name)
				}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("ipx: provider %s has no site %q", opt.Provider.Name, opt.SiteCity)
		}
	}
	return nil
}

// Selector chooses a breakout for a session.
type Selector interface {
	// Select resolves the breakout for a session of bMNO's subscriber
	// currently attached near userLoc.
	Select(bMNO string, userLoc geo.Point, src *rng.Source) (Breakout, error)
}

// StaticSelector implements the pre-arranged selection the paper
// observes: the b-MNO fully determines the candidate set, independent of
// where the user actually is.
type StaticSelector struct {
	agreements map[string]*Agreement
}

// NewStaticSelector builds a selector from validated agreements.
func NewStaticSelector(agreements []*Agreement) (*StaticSelector, error) {
	m := make(map[string]*Agreement, len(agreements))
	for _, a := range agreements {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if _, dup := m[a.BMNOName]; dup {
			return nil, fmt.Errorf("ipx: duplicate agreement for %s", a.BMNOName)
		}
		m[a.BMNOName] = a
	}
	return &StaticSelector{agreements: m}, nil
}

// Select implements Selector. The user location is deliberately ignored —
// that is the finding.
func (s *StaticSelector) Select(bMNO string, _ geo.Point, src *rng.Source) (Breakout, error) {
	a, ok := s.agreements[bMNO]
	if !ok {
		return Breakout{}, fmt.Errorf("ipx: no agreement for b-MNO %q", bMNO)
	}
	opt := pickOption(a.Options, src)
	site, addrs := siteOf(opt.Provider, opt.SiteCity)
	addr, err := pickAddr(opt.Provider, bMNO, addrs, src)
	if err != nil {
		return Breakout{}, err
	}
	return Breakout{Arch: a.Arch, Provider: opt.Provider, Site: site, Addr: addr}, nil
}

// Agreement returns the agreement for a b-MNO, if any.
func (s *StaticSelector) Agreement(bMNO string) (*Agreement, bool) {
	a, ok := s.agreements[bMNO]
	return a, ok
}

// GeoNearestSelector is the counterfactual policy for the ablation: pick
// the candidate site closest to the user among ALL providers' sites in
// the pool, the "dynamic routing" IHBO theoretically enables.
type GeoNearestSelector struct {
	Arch Architecture
	Pool []*PGWProvider
}

// Select implements Selector by minimizing great-circle distance to the
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

// PickBreakout resolves one session's breakout from an explicit option
// list, applying option weights and the chosen provider's assignment
// policy. It is the per-deployment variant of StaticSelector.Select used
// when a visited country's arrangement restricts the b-MNO-level
// agreement (e.g. Saudi Arabia's Telna eSIM using Packet Host only).
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
