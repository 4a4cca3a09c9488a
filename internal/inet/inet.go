// Package inet builds the public-internet side of the topology: the
// service providers (Google, Facebook, Ookla, the five CDNs) with their
// globally distributed edge sites, and the peering fabric that connects
// PGW providers to them.
//
// Each edge site is a small stack of netsim nodes: a peering (border)
// router announced in the SP's AS, a configurable number of internal
// routers, and the server itself. Internal depth varies per site, which
// is what produces the public-path-length variance of Figure 10 — the
// paper attributes that variance to "SPs' internal routing policies",
// and here it literally is one.
package inet

import (
	"fmt"
	"sort"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

// Edge is one service-provider point of presence.
type Edge struct {
	City    string
	Country string
	Loc     geo.Point
	// Peering is the border router other networks connect to.
	Peering netsim.NodeID
	// Server is the measurement target (answers pings, serves objects).
	Server netsim.NodeID
	// ServerAddr is the public address of the server.
	ServerAddr ipaddr.Addr
	// InternalHops is the number of routers between Peering and Server.
	InternalHops int
}

// ServiceProvider is a content/service network with many edges.
type ServiceProvider struct {
	Name  string
	ASN   ipreg.ASN
	Kind  ipreg.OrgKind
	Edges []Edge // fixed once NearestEdge has been asked

	nearest geo.NearestMemo
}

// NearestEdge returns the edge closest to loc (anycast routing), the
// first in Edges on a tie. It is safe for concurrent use.
func (sp *ServiceProvider) NearestEdge(loc geo.Point) (Edge, error) {
	if len(sp.Edges) == 0 {
		return Edge{}, fmt.Errorf("inet: %s has no edges", sp.Name)
	}
	i := sp.nearest.Index(loc, len(sp.Edges), func(i int) geo.Point { return sp.Edges[i].Loc })
	return sp.Edges[i], nil
}

// EdgeIn returns the edge in the given city, if any.
func (sp *ServiceProvider) EdgeIn(city string) (Edge, bool) {
	for _, e := range sp.Edges {
		if e.City == city {
			return e, true
		}
	}
	return Edge{}, false
}

// SPSpec describes a service provider to build.
type SPSpec struct {
	Name   string
	ASN    ipreg.ASN
	Kind   ipreg.OrgKind
	Prefix ipaddr.Prefix // address space for servers and border routers
	// EdgeCities are the POP locations (must exist in the geo database).
	EdgeCities []string
	// MinInternalHops/MaxInternalHops bound the per-edge internal router
	// chain; the exact depth is drawn once per edge at build time.
	MinInternalHops, MaxInternalHops int
}

// Builder assembles the public internet into a network + registry.
type Builder struct {
	Net *netsim.Network
	Reg *ipreg.Registry
	Rnd *rng.Source

	sps map[string]*ServiceProvider
}

// NewBuilder returns a Builder over the given network and registry.
func NewBuilder(n *netsim.Network, reg *ipreg.Registry, src *rng.Source) *Builder {
	return &Builder{Net: n, Reg: reg, Rnd: src, sps: make(map[string]*ServiceProvider)}
}

// AddServiceProvider creates the SP's AS, address space and edge stacks.
func (b *Builder) AddServiceProvider(spec SPSpec) (*ServiceProvider, error) {
	if _, dup := b.sps[spec.Name]; dup {
		return nil, fmt.Errorf("inet: duplicate SP %s", spec.Name)
	}
	if len(spec.EdgeCities) == 0 {
		return nil, fmt.Errorf("inet: SP %s has no edges", spec.Name)
	}
	if spec.MinInternalHops < 0 || spec.MaxInternalHops < spec.MinInternalHops {
		return nil, fmt.Errorf("inet: SP %s has bad internal hop bounds", spec.Name)
	}
	b.Reg.RegisterAS(ipreg.AS{Number: spec.ASN, Org: spec.Name, Country: "USA", Kind: spec.Kind})
	alloc := ipaddr.NewAllocator(spec.Prefix)
	sp := &ServiceProvider{Name: spec.Name, ASN: spec.ASN, Kind: spec.Kind}

	for _, cityName := range spec.EdgeCities {
		city, err := geo.LookupCity(cityName)
		if err != nil {
			return nil, fmt.Errorf("inet: SP %s: %w", spec.Name, err)
		}
		sitePrefix, err := alloc.NextPrefix(27)
		if err != nil {
			return nil, fmt.Errorf("inet: SP %s out of address space: %w", spec.Name, err)
		}
		b.Reg.MustRegisterPrefix(sitePrefix, spec.ASN, city.Name, city.Country, city.Loc)
		siteAlloc := ipaddr.NewAllocator(sitePrefix)

		peering := b.Net.AddNode(netsim.Node{
			Name: fmt.Sprintf("%s-peer-%s", spec.Name, city.Name),
			Kind: netsim.KindRouter, Loc: city.Loc,
			Addr: siteAlloc.MustNextAddr(), ASN: spec.ASN,
		})
		prev := peering
		depth := spec.MinInternalHops
		if spec.MaxInternalHops > spec.MinInternalHops {
			depth = b.Rnd.IntBetween(spec.MinInternalHops, spec.MaxInternalHops)
		}
		for i := 0; i < depth; i++ {
			r := b.Net.AddNode(netsim.Node{
				Name: fmt.Sprintf("%s-core%d-%s", spec.Name, i, city.Name),
				Kind: netsim.KindRouter, Loc: city.Loc,
				Addr: siteAlloc.MustNextAddr(), ASN: spec.ASN,
			})
			b.Net.Connect(prev, r, netsim.Link{DelayMs: 0.2, BandwidthMbps: 100000})
			prev = r
		}
		serverAddr := siteAlloc.MustNextAddr()
		server := b.Net.AddNode(netsim.Node{
			Name: fmt.Sprintf("%s-edge-%s", spec.Name, city.Name),
			Kind: netsim.KindServer, Loc: city.Loc,
			Addr: serverAddr, ASN: spec.ASN,
		})
		b.Net.Connect(prev, server, netsim.Link{DelayMs: 0.2, BandwidthMbps: 100000})
		sp.Edges = append(sp.Edges, Edge{
			City: city.Name, Country: city.Country, Loc: city.Loc,
			Peering: peering, Server: server, ServerAddr: serverAddr,
			InternalHops: depth,
		})
	}
	b.sps[spec.Name] = sp
	return sp, nil
}

// PeerWith connects a node (typically a PGW provider's CG-NAT or border
// router) to the nearest edges of the SP. count limits how many edges to
// peer with (anycast needs only the nearby ones); link carries optional
// peering-quality parameters.
func (b *Builder) PeerWith(from netsim.NodeID, sp *ServiceProvider, count int, link netsim.Link) {
	loc := b.Net.Node(from).Loc
	edges := append([]Edge(nil), sp.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		return geo.DistanceKm(loc, edges[i].Loc) < geo.DistanceKm(loc, edges[j].Loc)
	})
	if count > len(edges) {
		count = len(edges)
	}
	for _, e := range edges[:count] {
		b.Net.Connect(from, e.Peering, link)
	}
}
