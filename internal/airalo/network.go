package airalo

import (
	"fmt"
	"sort"

	"roamsim/internal/dnssim"
	"roamsim/internal/geo"
	"roamsim/internal/inet"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/ipx"
	"roamsim/internal/netsim"
)

// googleDNSCities hosts Google public DNS resolver instances; Tulsa and
// Fort Worth reproduce the US-eSIM anycast observations of Section 5.1.
var googleDNSCities = []string{
	"Amsterdam", "Frankfurt", "London", "Paris", "Madrid", "Warsaw",
	"Singapore", "Tokyo", "Mumbai", "Dubai", "Istanbul", "Nairobi",
	"Ashburn", "Tulsa", "Fort Worth", "Seoul", "Bangkok", "Lille",
}

// buildGoogleDNS creates the Google public DNS anycast deployment.
func (w *World) buildGoogleDNS() error {
	sp, err := w.inetB.AddServiceProvider(inet.SPSpec{
		Name: "Google DNS", ASN: 15169, Kind: ipreg.KindContent,
		Prefix:          ipaddr.MustParsePrefix("8.8.0.0/16"),
		EdgeCities:      googleDNSCities,
		MinInternalHops: 1, MaxInternalHops: 1,
	})
	if err != nil {
		return err
	}
	w.SPs["Google DNS"] = sp
	group := &dnssim.AnycastGroup{Name: "GoogleDNS", VIP: ipaddr.MustParse("8.8.8.8")}
	for _, e := range sp.Edges {
		group.Instances = append(group.Instances, dnssim.Resolver{
			Name: "google-dns-" + e.City, Addr: e.ServerAddr, ASN: 15169,
			City: e.City, Country: e.Country, Loc: e.Loc, SupportsDoH: true,
		})
		w.resolverNodes[e.ServerAddr] = e.Server
	}
	w.GoogleDNS = group
	return nil
}

// opNetwork is a local operator's packet core: its PGWs, CG-NAT, and the
// provider wrapper that lets sessions pick a PGW uniformly.
type opNetwork struct {
	provider *ipx.PGWProvider
	cgnat    netsim.NodeID
	natAlloc *ipaddr.Allocator
}

// buildOperatorNetworks creates the packet cores for every operator in
// operatorNets (physical-SIM operators and native eSIM issuers), plus an
// in-network DNS resolver and a resolver for the Singtel HR PGWs.
func (w *World) buildOperatorNetworks() error {
	w.opNetworks = map[string]*opNetwork{}
	names := make([]string, 0, len(operatorNets))
	for n := range operatorNets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		spec := operatorNets[name]
		op, ok := w.Operators[name]
		if !ok {
			return fmt.Errorf("airalo: operator network for unknown operator %q", name)
		}
		country := geo.MustCountry(op.Country)
		// Carve the operator's /16 for PGWs and NAT pool.
		prefix := operatorPrefix(name)
		alloc := ipaddr.NewAllocator(ipaddr.MustParsePrefix(prefix))
		provider := &ipx.PGWProvider{Name: name, ASN: op.ASN, Policy: ipx.AssignUniform}

		// CG-NAT sits at the operator's principal city.
		cgAddr := alloc.MustNextAddr()
		cg := w.Net.AddNode(netsim.Node{
			Name: "cgnat-" + name, Kind: netsim.KindCGNAT,
			Loc: country.Center, Addr: cgAddr, ASN: op.ASN,
		})

		cityNames := make([]string, 0, len(spec.PGWs))
		for c := range spec.PGWs {
			cityNames = append(cityNames, c)
		}
		sort.Strings(cityNames)
		for _, cityName := range cityNames {
			city := geo.MustCity(cityName)
			sitePrefix, err := alloc.NextPrefix(24)
			if err != nil {
				return fmt.Errorf("airalo: operator %s: %w", name, err)
			}
			// Register the site prefix at the PGW city so geolocation of
			// the observed PGW IPs is city-accurate (the Seoul vs
			// Goyang/Cheonan distinction of Section 4.3.2).
			w.Reg.MustRegisterPrefix(sitePrefix, op.ASN, city.Name, op.Country, city.Loc)
			siteAlloc := ipaddr.NewAllocator(sitePrefix)
			site := ipx.PGWSite{City: city.Name, Country: op.Country, Loc: city.Loc}
			for i := 0; i < spec.PGWs[cityName]; i++ {
				addr := siteAlloc.MustNextAddr()
				site.Addrs = append(site.Addrs, addr)
				pgw := w.Net.AddNode(netsim.Node{
					Name: fmt.Sprintf("pgw-%s-%s-%d", name, city.Name, i),
					Kind: netsim.KindPGW, Loc: city.Loc, Addr: addr, ASN: op.ASN,
				})
				w.pgwNodes[addr] = pgw
				w.Net.Connect(pgw, cg, netsim.Link{BandwidthMbps: 100000})
			}
			provider.Sites = append(provider.Sites, site)
		}
		w.peerEgressOp(cg, name, country.Center, spec)

		// In-network DNS resolver (MNO resolvers don't speak DoH).
		resAddr := alloc.MustNextAddr()
		resNode := w.Net.AddNode(netsim.Node{
			Name: "dns-" + name, Kind: netsim.KindResolver,
			Loc: country.Center, Addr: resAddr, ASN: op.ASN,
		})
		w.Net.Connect(cg, resNode, netsim.Link{DelayMs: 0.3, BandwidthMbps: 100000})
		w.resolverNodes[resAddr] = resNode
		w.opResolvers[name] = &dnssim.Resolver{
			Name: name + "-dns", Addr: resAddr, ASN: op.ASN,
			City: country.Capital, Country: op.Country, Loc: country.Center,
			SupportsDoH: false,
		}
		w.opNetworks[name] = &opNetwork{provider: provider, cgnat: cg, natAlloc: alloc}
	}

	// Singtel's HR PGWs need a b-MNO resolver too: HR sessions resolve
	// DNS inside Singtel (AS45143), per Section 5.1.
	singtel := w.Operators["Singtel"]
	sgCity := geo.MustCity("Singapore")
	bp := w.builtProviders["Singtel"]
	resAddr, err := bp.NATAddr("Singapore")
	if err != nil {
		return err
	}
	resNode := w.Net.AddNode(netsim.Node{
		Name: "dns-Singtel", Kind: netsim.KindResolver,
		Loc: sgCity.Loc, Addr: resAddr, ASN: singtel.ASN,
	})
	w.Net.Connect(w.cgnatNodes[providerSiteKey("Singtel", "Singapore")], resNode,
		netsim.Link{DelayMs: 0.3, BandwidthMbps: 100000})
	w.resolverNodes[resAddr] = resNode
	w.opResolvers["Singtel"] = &dnssim.Resolver{
		Name: "Singtel-dns", Addr: resAddr, ASN: singtel.ASN,
		City: "Singapore", Country: "SGP", Loc: sgCity.Loc, SupportsDoH: false,
	}
	return nil
}

// peerEgressOp peers an operator CG-NAT with the SPs, honoring its
// transit chain and peering penalty.
func (w *World) peerEgressOp(cg netsim.NodeID, name string, loc geo.Point, spec operatorNetSpec) {
	from := cg
	for i, tName := range spec.TransitVia {
		t := w.Operators[tName]
		tn := w.Net.AddNode(netsim.Node{
			Name: fmt.Sprintf("transit-%s-%s-%d", name, tName, i),
			Kind: netsim.KindRouter, Loc: loc,
			Addr: w.transitAddr(tName), ASN: t.ASN,
		})
		w.Net.Connect(from, tn, netsim.Link{DelayMs: 0.4, BandwidthMbps: 100000})
		from = tn
	}
	link := netsim.Link{PeeringPenaltyMs: spec.PeeringPenaltyMs, BandwidthMbps: 50000}
	spNames := make([]string, 0, len(w.SPs))
	for n := range w.SPs {
		spNames = append(spNames, n)
	}
	sort.Strings(spNames)
	for _, n := range spNames {
		w.inetB.PeerWith(from, w.SPs[n], 2, link)
	}
}

func operatorPrefix(name string) string {
	for _, s := range append(append([]OperatorSpec(nil), bMNOSpecs...), vMNOSpecs...) {
		if s.Name == name {
			return s.Prefix
		}
	}
	panic("airalo: no prefix for operator " + name)
}
