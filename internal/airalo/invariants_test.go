package airalo

import (
	"testing"

	"roamsim/internal/core"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipx"
	"roamsim/internal/mno"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

// TestWorldDeterminism: two builds from the same seed produce identical
// breakout decisions and addressing for identical attach sequences.
func TestWorldDeterminism(t *testing.T) {
	run := func() []string {
		w, err := Build(777)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(5)
		var out []string
		for _, key := range w.DeploymentKeys(false, false) {
			s, err := w.Deployments[key].AttachESIM(src)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, key+"|"+s.PGWAddr.String()+"|"+s.PublicIP.String()+"|"+string(s.Arch))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestDeploymentInvariants checks structural sanity across every
// deployment: caps positive, radio valid, profile/issuer consistent,
// public IPs classifiable, tunnels present exactly for roaming.
func TestDeploymentInvariants(t *testing.T) {
	w := world(t)
	cl := &core.Classifier{Reg: w.Reg}
	src := rng.New(6)
	for key, d := range w.Deployments {
		if d.Spec.ESIMDown <= 0 || d.Spec.ESIMUp <= 0 {
			t.Errorf("%s: non-positive eSIM caps", key)
		}
		if d.Spec.RadioESIM.MeanCQI < 5 || d.Spec.RadioESIM.MeanCQI > 15 {
			t.Errorf("%s: implausible MeanCQI %f", key, d.Spec.RadioESIM.MeanCQI)
		}
		for i := 0; i < 4; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if s.PublicIP.IsPrivate() {
				t.Errorf("%s: session public IP %s is private", key, s.PublicIP)
			}
			arch, err := cl.ArchOf(s.PublicIP, s.Profile.Issuer, d.VMNO)
			if err != nil {
				t.Errorf("%s: public IP unclassifiable: %v", key, err)
				continue
			}
			if arch != s.Arch {
				t.Errorf("%s: session arch %s but classifier says %s", key, s.Arch, arch)
			}
			roaming := s.Arch == ipx.HR || s.Arch == ipx.IHBO
			if roaming != (s.TunnelSpanKm() > 0) {
				t.Errorf("%s: tunnel span %.0f km inconsistent with arch %s", key, s.TunnelSpanKm(), s.Arch)
			}
			// The PGW address belongs to the provider that owns the site.
			if _, ok := s.Provider.Site(s.PGWAddr); !ok {
				t.Errorf("%s: PGW %s not in provider %s's sites", key, s.PGWAddr, s.Provider.Name)
			}
			// Public IP and PGW address resolve to the same AS (the
			// paper's speedtest-vs-traceroute verification step).
			pgwInfo, ok1 := w.Reg.Lookup(s.PGWAddr)
			pubInfo, ok2 := w.Reg.Lookup(s.PublicIP)
			if !ok1 || !ok2 || pgwInfo.AS.Number != pubInfo.AS.Number {
				t.Errorf("%s: PGW AS and public-IP AS differ (%v/%v)", key, pgwInfo.AS, pubInfo.AS)
			}
		}
		if d.Spec.SIMOperator != "" {
			s, err := d.AttachSIM(src)
			if err != nil {
				t.Fatalf("%s SIM: %v", key, err)
			}
			if s.Kind != mno.PhysicalSIM || s.Arch != ipx.Native {
				t.Errorf("%s SIM: kind/arch = %s/%s", key, s.Kind, s.Arch)
			}
			if s.Profile.Issuer.Name != d.Spec.SIMOperator {
				t.Errorf("%s SIM: issuer %s != %s", key, s.Profile.Issuer.Name, d.Spec.SIMOperator)
			}
		}
	}
}

// roamingTunnel is one GTP tunnel a roaming eSIM can draw: from the
// deployment's SGW to one PGW address of one breakout option.
type roamingTunnel struct {
	key      string
	sgw, pgw netsim.NodeID
	addr     ipaddr.Addr
}

// roamingTunnels lists every tunnel of every HR or IHBO deployment in w.
func roamingTunnels(t *testing.T, w *World) []roamingTunnel {
	t.Helper()
	var tunnels []roamingTunnel
	for key, d := range w.Deployments {
		if d.esimArch != ipx.HR && d.esimArch != ipx.IHBO {
			continue
		}
		for _, opt := range d.esimOptions {
			var addrs []ipaddr.Addr
			for _, site := range opt.Provider.Sites {
				if site.City == opt.SiteCity {
					addrs = site.Addrs
				}
			}
			if len(addrs) == 0 {
				t.Fatalf("%s: provider %s has no PGW at %q", key, opt.Provider.Name, opt.SiteCity)
			}
			for _, addr := range addrs {
				pgw, ok := w.pgwNodes[addr]
				if !ok {
					t.Fatalf("%s: PGW %s has no node", key, addr)
				}
				tunnels = append(tunnels, roamingTunnel{key: key, sgw: d.sgw, pgw: pgw, addr: addr})
			}
		}
	}
	if len(tunnels) == 0 {
		t.Fatal("no roaming deployment checked")
	}
	return tunnels
}

// TestRoamingTunnelEndpoints: every breakout a roaming eSIM can draw, in
// every deployment, has a GTP tunnel with an SGW at one end and a PGW at
// the other.
func TestRoamingTunnelEndpoints(t *testing.T) {
	w := world(t)
	for _, tn := range roamingTunnels(t, w) {
		if k := w.Net.Node(tn.sgw).Kind; k != netsim.KindSGW {
			t.Errorf("%s: tunnel starts at a %s node, not an SGW", tn.key, k)
		}
		if k := w.Net.Node(tn.pgw).Kind; k != netsim.KindPGW {
			t.Errorf("%s: tunnel to %s ends at a %s node, not a PGW", tn.key, tn.addr, k)
		}
	}
}

// TestRoamingTunnelRoutes: every roaming tunnel's SGW has a route to its
// PGW, so no breakout an eSIM can draw is unreachable.
func TestRoamingTunnelRoutes(t *testing.T) {
	w := world(t)
	for _, tn := range roamingTunnels(t, w) {
		if _, err := w.Net.Route(tn.sgw, tn.pgw); err != nil {
			t.Errorf("%s: no tunnel route to PGW %s: %v", tn.key, tn.addr, err)
		}
	}
}

// TestAllSessionsReachAllSPs: every session (both kinds, every country)
// can route to every service provider — no partitioned topology.
func TestAllSessionsReachAllSPs(t *testing.T) {
	w := world(t)
	src := rng.New(7)
	for key, d := range w.Deployments {
		sessions := []*Session{}
		s, err := d.AttachESIM(src)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		if d.SIMProfile != nil {
			s2, err := d.AttachSIM(src)
			if err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s2)
		}
		for _, sess := range sessions {
			for name, sp := range w.SPs {
				edge, err := sp.NearestEdge(sess.Site.Loc)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.PathTo(edge.Server); err != nil {
					t.Errorf("%s (%s) cannot reach %s: %v", key, sess.Kind, name, err)
				}
			}
		}
	}
}

// TestPGWAddressesGloballyUnique: no two providers/operators share a PGW
// address; every PGW node's address resolves to its owner's AS.
func TestPGWAddressesGloballyUnique(t *testing.T) {
	w := world(t)
	seen := map[string]string{}
	check := func(owner string, p *ipx.PGWProvider) {
		for _, site := range p.Sites {
			for _, addr := range site.Addrs {
				key := addr.String()
				if prev, dup := seen[key]; dup && prev != owner {
					t.Errorf("PGW %s shared by %s and %s", key, prev, owner)
				}
				seen[key] = owner
				info, ok := w.Reg.Lookup(addr)
				if !ok {
					t.Errorf("PGW %s (owner %s) not in registry", key, owner)
					continue
				}
				if info.AS.Number != p.ASN {
					t.Errorf("PGW %s resolves to %s, owner AS %s", key, info.AS.Number, p.ASN)
				}
			}
		}
	}
	for name, p := range w.Providers {
		check(name, p)
	}
	for name, on := range w.opNetworks {
		check(name, on.provider)
	}
	if len(seen) < 25 {
		t.Errorf("only %d PGW addresses in the world", len(seen))
	}
}

// TestProviderAlternationFrequencies: Play eSIMs alternate roughly
// evenly between Packet Host and OVH (the Table 2 "iterates between"
// observation).
func TestProviderAlternationFrequencies(t *testing.T) {
	w := world(t)
	src := rng.New(8)
	counts := map[string]int{}
	const n = 400
	for i := 0; i < n; i++ {
		s, err := w.Deployments["ESP"].AttachESIM(src)
		if err != nil {
			t.Fatal(err)
		}
		counts[s.Provider.Name]++
	}
	for _, prov := range []string{"Packet Host", "OVH SAS"} {
		f := float64(counts[prov]) / n
		if f < 0.35 || f > 0.65 {
			t.Errorf("%s share = %.2f, want ~0.5", prov, f)
		}
	}
}
