package airalo

import (
	"fmt"
	"sort"

	"roamsim/internal/dnssim"
	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipx"
	"roamsim/internal/mno"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

// buildDeployment wires one visited country: UE/radio/SGW nodes, GTP
// chains to each allowed breakout site, and the physical-SIM path.
func (w *World) buildDeployment(spec DeploymentSpec, key string) error {
	country, err := geo.LookupCountry(spec.ISO3)
	if err != nil {
		return err
	}
	city, err := geo.LookupCity(spec.City)
	if err != nil {
		return err
	}
	vmno, ok := w.Operators[spec.VMNOName]
	if !ok {
		return fmt.Errorf("unknown v-MNO %q", spec.VMNOName)
	}
	bmno, ok := w.Operators[spec.BMNOName]
	if !ok {
		return fmt.Errorf("unknown b-MNO %q", spec.BMNOName)
	}
	d := &Deployment{
		Key: key, Spec: spec, Country: country, Loc: city.Loc,
		VMNO: vmno, BMNO: bmno, world: w,
		esimPublicIP: map[string]ipaddr.Addr{},
	}

	// Profiles: the aggregator leases an IMSI block from the issuer once
	// and provisions this deployment's eSIM from it.
	aggregator := "airalo"
	if spec.BMNOName == "emnify" {
		aggregator = "emnify"
	}
	rg, err := leaseOnce(bmno, aggregator)
	if err != nil {
		return err
	}
	d.ESIMProfile = mno.NewProfile("esim-"+key, mno.ESIM, bmno, rg, "internet."+aggregator, aggregator)

	native := spec.BMNOName == spec.VMNOName
	if native {
		d.esimArch = ipx.Native
	} else if len(spec.Breakouts) == 1 && spec.Breakouts[0].Provider == spec.BMNOName {
		d.esimArch = ipx.HR
	} else {
		d.esimArch = ipx.IHBO
	}

	// UE + radio + SGW for the eSIM side.
	d.ueESIM = w.Net.AddNode(netsim.Node{
		Name: "ue-esim-" + key, Kind: netsim.KindUE, Loc: city.Loc,
		Addr: privAddr(10, len(w.Deployments), 0, 2),
	})
	bs := w.Net.AddNode(netsim.Node{
		Name: "bs-esim-" + key, Kind: netsim.KindBaseSta, Loc: city.Loc,
		Addr: privAddr(10, len(w.Deployments), 0, 3),
	})
	w.Net.Connect(d.ueESIM, bs, netsim.Link{DelayMs: radioDelayMs, LossProb: spec.LossESIM, JitterFrac: 0.25})
	d.sgw = w.Net.AddNode(netsim.Node{
		Name: "sgw-" + key, Kind: netsim.KindSGW, Loc: city.Loc,
		Addr: privAddr(10, len(w.Deployments), 0, 4),
	})
	w.Net.Connect(bs, d.sgw, netsim.Link{DelayMs: 0.8})

	if native {
		// Native eSIM: the issuer's own network is the breakout.
		opNet, ok := w.opNetworks[spec.BMNOName]
		if !ok {
			return fmt.Errorf("native issuer %q has no operator network", spec.BMNOName)
		}
		if err := w.buildChain(d, d.sgw, opNet.provider, opNet.provider.Sites[0].City,
			spec.VMNOPrivateHops-2, 0, key+"-native"); err != nil {
			return err
		}
		d.esimOptions = []ipx.AgreementOption{{Provider: opNet.provider, SiteCity: opNet.provider.Sites[0].City, Weight: 1}}
		pub, err := opNet.natAlloc.NextAddr()
		if err != nil {
			return err
		}
		d.esimPublicIP[providerSiteKey(opNet.provider.Name, opNet.provider.Sites[0].City)] = pub
	} else {
		for _, b := range spec.Breakouts {
			bp, ok := w.builtProviders[b.Provider]
			if !ok {
				return fmt.Errorf("unknown PGW provider %q", b.Provider)
			}
			penalty := spec.TunnelPenaltyMs[b.Provider]
			extraVMNO := spec.VMNOPrivateHops - 2
			if err := w.buildChain(d, d.sgw, bp.Provider, b.SiteCity,
				extraVMNO+bp.Provider.PrivateHops, penalty, key+"-"+b.Provider); err != nil {
				return err
			}
			d.esimOptions = append(d.esimOptions, ipx.AgreementOption{
				Provider: bp.Provider, SiteCity: b.SiteCity, Weight: b.Weight,
			})
			pub, err := bp.NATAddr(b.SiteCity)
			if err != nil {
				return err
			}
			d.esimPublicIP[providerSiteKey(b.Provider, b.SiteCity)] = pub
		}
	}

	// Physical SIM side (device campaign only).
	if spec.SIMOperator != "" {
		simOp, ok := w.Operators[spec.SIMOperator]
		if !ok {
			return fmt.Errorf("unknown SIM operator %q", spec.SIMOperator)
		}
		opNet, ok := w.opNetworks[spec.SIMOperator]
		if !ok {
			return fmt.Errorf("SIM operator %q has no network", spec.SIMOperator)
		}
		d.SIMProfile = mno.NewProfile("sim-"+key, mno.PhysicalSIM, simOp, simOp.OwnRange(), "internet", "")
		d.ueSIM = w.Net.AddNode(netsim.Node{
			Name: "ue-sim-" + key, Kind: netsim.KindUE, Loc: city.Loc,
			Addr: privAddr(10, len(w.Deployments), 1, 2),
		})
		bsSIM := w.Net.AddNode(netsim.Node{
			Name: "bs-sim-" + key, Kind: netsim.KindBaseSta, Loc: city.Loc,
			Addr: privAddr(10, len(w.Deployments), 1, 3),
		})
		w.Net.Connect(d.ueSIM, bsSIM, netsim.Link{DelayMs: radioDelayMs, LossProb: spec.LossSIM, JitterFrac: 0.25})
		// The SIM chain runs from the base station through the operator
		// core to every PGW site of the operator.
		for _, site := range opNet.provider.Sites {
			if err := w.buildChainFrom(d, bsSIM, opNet.provider, site.City,
				spec.SIMPrivateHops-1, 0, key+"-sim-"+site.City); err != nil {
				return err
			}
		}
		d.simProvider = opNet.provider
		pub, err := opNet.natAlloc.NextAddr()
		if err != nil {
			return err
		}
		d.simPublicIP = pub
	}

	w.Deployments[key] = d
	return nil
}

// radioDelayMs is the one-way radio access latency baseline.
const radioDelayMs = 14

// buildChain creates a private relay chain from the SGW to every PGW
// node at the given provider site.
func (w *World) buildChain(d *Deployment, from netsim.NodeID, p *ipx.PGWProvider,
	siteCity string, relays int, penaltyMs float64, label string) error {
	return w.buildChainFrom(d, from, p, siteCity, relays, penaltyMs, label)
}

// buildChainFrom lays relay nodes between `from` and the PGWs of the
// site. The tunnel's geographic span is split across the relays so
// propagation delay accumulates hop by hop, as real traceroutes show.
// The peering penalty applies on the first segment (the interconnection
// into the IPX/provider network).
func (w *World) buildChainFrom(d *Deployment, from netsim.NodeID, p *ipx.PGWProvider,
	siteCity string, relays int, penaltyMs float64, label string) error {
	var site *ipx.PGWSite
	for i := range p.Sites {
		if p.Sites[i].City == siteCity {
			site = &p.Sites[i]
			break
		}
	}
	if site == nil {
		return fmt.Errorf("provider %s has no site %q", p.Name, siteCity)
	}
	if relays < 0 {
		relays = 0
	}
	fromLoc := w.Net.Node(from).Loc
	prev := from
	for i := 0; i < relays; i++ {
		// Interpolate relay positions along the SGW->site great circle.
		frac := float64(i+1) / float64(relays+1)
		loc := interpolate(fromLoc, site.Loc, frac)
		link := netsim.Link{}
		if i == 0 {
			link.PeeringPenaltyMs = penaltyMs
		}
		relay := w.Net.AddNode(netsim.Node{
			Name: fmt.Sprintf("rly-%s-%d", label, i),
			Kind: netsim.KindIPXRelay, Loc: loc,
			Addr: privAddr(172, 16+len(w.Deployments), i, int(from)%200+2),
		})
		w.Net.Connect(prev, relay, link)
		prev = relay
	}
	for _, addr := range site.Addrs {
		pgwNode, ok := w.pgwNodes[addr]
		if !ok {
			return fmt.Errorf("no node for PGW %s", addr)
		}
		link := netsim.Link{}
		if relays == 0 {
			link.PeeringPenaltyMs = penaltyMs
		}
		w.Net.Connect(prev, pgwNode, link)
	}
	return nil
}

// interpolate walks fraction frac of the way from a to b via repeated
// midpointing (sufficient accuracy for router placement).
func interpolate(a, b geo.Point, frac float64) geo.Point {
	switch {
	case frac <= 0.26:
		return geo.Midpoint(a, geo.Midpoint(a, b))
	case frac <= 0.51:
		return geo.Midpoint(a, b)
	case frac <= 0.76:
		return geo.Midpoint(geo.Midpoint(a, b), b)
	default:
		return b
	}
}

// privAddr fabricates deterministic RFC1918 addresses for private nodes.
func privAddr(base, a, b, c int) ipaddr.Addr {
	if base == 172 {
		return ipaddr.Addr(uint32(172)<<24 | uint32(16+(a%16))<<16 | uint32(b%256)<<8 | uint32(c%256))
	}
	return ipaddr.Addr(uint32(10)<<24 | uint32(a%256)<<16 | uint32(b%256)<<8 | uint32(c%256))
}

// leasedRanges memoizes the per-issuer aggregator IMSI blocks.
var leasedSuffix = "731"

func leaseOnce(op *mno.Operator, label string) (mno.IMSIRange, error) {
	for _, r := range op.Ranges() {
		if r.Label == label {
			return r, nil
		}
	}
	return op.LeaseRange(leasedSuffix, label)
}

// AttachESIM resolves a fresh eSIM session: the breakout option and PGW
// address are drawn per attachment, reproducing the provider alternation
// the paper observed across measurements.
func (d *Deployment) AttachESIM(src *rng.Source) (*Session, error) {
	bk, err := ipx.PickBreakout(d.esimArch, d.esimOptions, d.BMNO.Name, src)
	if err != nil {
		return nil, err
	}
	pgwNode, ok := d.world.pgwNodes[bk.Addr]
	if !ok {
		return nil, fmt.Errorf("airalo: PGW %s has no node", bk.Addr)
	}
	s := &Session{
		D: d, Kind: mno.ESIM, Profile: d.ESIMProfile, Arch: bk.Arch,
		Provider: bk.Provider, Site: bk.Site, PGWAddr: bk.Addr,
		PGWNode: pgwNode, UE: d.ueESIM,
		PublicIP:    d.esimPublicIP[providerSiteKey(bk.Provider.Name, bk.Site.City)],
		Radio:       d.Spec.RadioESIM,
		DownCapMbps: d.Spec.ESIMDown, UpCapMbps: d.Spec.ESIMUp,
		YouTubeCapMbps: d.Spec.YouTubeCapESIM,
		CDNHitRate:     defaultHit(d.Spec.CDNHitESIM),
	}
	// GTP tunnel for roaming sessions (SGW -> PGW through the chain).
	if bk.Arch == ipx.HR || bk.Arch == ipx.IHBO {
		tun, err := d.world.GTP.Create(d.sgw, pgwNode)
		if err != nil {
			return nil, err
		}
		s.Tunnel = tun
	}
	// DNS: IHBO uses Google anycast (and DoH, the Android default);
	// HR and native resolve inside the issuer's network.
	switch bk.Arch {
	case ipx.IHBO:
		s.DNS = dnssim.Config{Anycast: d.world.GoogleDNS, UseDoH: true}
	default:
		res, ok := d.world.opResolvers[d.BMNO.Name]
		if !ok {
			return nil, fmt.Errorf("airalo: no resolver for issuer %s", d.BMNO.Name)
		}
		s.DNS = dnssim.Config{Resolver: &res, UseDoH: true} // falls back: MNO DNS lacks DoH
	}
	return s, nil
}

// AttachSIM resolves a physical-SIM session (device campaign only).
func (d *Deployment) AttachSIM(src *rng.Source) (*Session, error) {
	if d.SIMProfile == nil {
		return nil, fmt.Errorf("airalo: deployment %s has no physical SIM", d.Key)
	}
	opts := make([]ipx.AgreementOption, 0, len(d.simProvider.Sites))
	for _, site := range d.simProvider.Sites {
		opts = append(opts, ipx.AgreementOption{Provider: d.simProvider, SiteCity: site.City, Weight: float64(len(site.Addrs))})
	}
	bk, err := ipx.PickBreakout(ipx.Native, opts, d.SIMProfile.Issuer.Name, src)
	if err != nil {
		return nil, err
	}
	pgwNode, ok := d.world.pgwNodes[bk.Addr]
	if !ok {
		return nil, fmt.Errorf("airalo: PGW %s has no node", bk.Addr)
	}
	res, ok := d.world.opResolvers[d.SIMProfile.Issuer.Name]
	if !ok {
		return nil, fmt.Errorf("airalo: no resolver for %s", d.SIMProfile.Issuer.Name)
	}
	return &Session{
		D: d, Kind: mno.PhysicalSIM, Profile: d.SIMProfile, Arch: ipx.Native,
		Provider: bk.Provider, Site: bk.Site, PGWAddr: bk.Addr,
		PGWNode: pgwNode, UE: d.ueSIM, PublicIP: d.simPublicIP,
		Radio:       d.Spec.RadioSIM,
		DownCapMbps: d.Spec.SIMDown, UpCapMbps: d.Spec.SIMUp,
		YouTubeCapMbps: d.Spec.YouTubeCapSIM,
		CDNHitRate:     defaultHit(d.Spec.CDNHitSIM),
		DNS:            dnssim.Config{Resolver: &res},
	}, nil
}

func defaultHit(v float64) float64 {
	if v == 0 {
		return 0.95
	}
	return v
}

// PathTo returns the session's path to target: the pinned private leg
// (UE -> assigned PGW) joined to the routed public leg (PGW -> target).
// The result is the network's cached composition (netsim.RouteVia) —
// the same *Path for every call and every session with this PGW, so
// callers read it and never write to it.
func (s *Session) PathTo(target netsim.NodeID) (*netsim.Path, error) {
	p, err := s.D.world.Net.RouteVia(s.UE, s.PGWNode, target)
	if err != nil {
		return nil, fmt.Errorf("airalo: path via PGW %s: %w", s.PGWAddr, err)
	}
	return p, nil
}

// World returns the world this session lives in.
func (s *Session) World() *World { return s.D.world }

// ResolverNode returns the netsim node of a resolver address.
func (w *World) ResolverNode(addr ipaddr.Addr) (netsim.NodeID, bool) {
	n, ok := w.resolverNodes[addr]
	return n, ok
}

// DeploymentKeys returns deployment keys sorted, optionally filtered to
// a campaign.
func (w *World) DeploymentKeys(web, device bool) []string {
	var out []string
	for key, d := range w.Deployments {
		if key == "EMNIFY" {
			continue
		}
		if (web && d.Spec.InWeb) || (device && d.Spec.InDevice) || (!web && !device) {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// AttachHypotheticalLBO returns an eSIM session as if the v-MNO
// implemented Local Breakout — the evolution path the paper's
// conclusion sketches. Traffic uses the visited operator's own packet
// core and PGWs (the physical-SIM data path) while keeping the eSIM's
// roamer policy caps, isolating the architectural latency effect from
// the commercial throttling. It requires a deployment whose v-MNO has a
// modeled network (the device-campaign countries).
func (d *Deployment) AttachHypotheticalLBO(src *rng.Source) (*Session, error) {
	if d.SIMProfile == nil || d.simProvider == nil {
		return nil, fmt.Errorf("airalo: %s has no modeled v-MNO network for LBO", d.Key)
	}
	s, err := d.AttachSIM(src)
	if err != nil {
		return nil, err
	}
	s.Kind = mno.ESIM
	s.Profile = d.ESIMProfile
	s.Arch = ipx.LBO
	// Roamer policy still applies: LBO changes the path, not the deal.
	s.DownCapMbps, s.UpCapMbps = d.Spec.ESIMDown, d.Spec.ESIMUp
	s.YouTubeCapMbps = d.Spec.YouTubeCapESIM
	s.CDNHitRate = defaultHit(d.Spec.CDNHitESIM)
	s.Radio = d.Spec.RadioESIM
	return s, nil
}
