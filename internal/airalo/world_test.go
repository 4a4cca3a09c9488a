package airalo

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"roamsim/internal/core"
	"roamsim/internal/geo"
	"roamsim/internal/inet"
	"roamsim/internal/ipx"
	"roamsim/internal/mno"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

// buildWorld is shared across tests (construction is the expensive part).
var sharedWorld *World

func world(t *testing.T) *World {
	t.Helper()
	if sharedWorld == nil {
		w, err := Build(1)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		sharedWorld = w
	}
	return sharedWorld
}

func TestBuildInventory(t *testing.T) {
	w := world(t)
	if len(w.Deployments) != 25 { // 24 countries + emnify validation
		t.Errorf("deployments = %d, want 25", len(w.Deployments))
	}
	if got := len(w.DeploymentKeys(false, true)); got != 10 {
		t.Errorf("device campaign countries = %d, want 10", got)
	}
	if got := len(w.DeploymentKeys(true, false)); got != 14 {
		t.Errorf("web campaign countries = %d, want 14", got)
	}
	if got := len(w.DeploymentKeys(false, false)); got != 24 {
		t.Errorf("total visited countries = %d, want 24", got)
	}
	for _, name := range []string{"Singtel", "Packet Host", "OVH SAS", "Wireless Logic", "Webbing USA"} {
		if _, ok := w.Providers[name]; !ok {
			t.Errorf("missing PGW provider %s", name)
		}
	}
	for _, name := range []string{"Google", "Facebook", "Ookla", "Cloudflare", "Google DNS"} {
		if _, ok := w.SPs[name]; !ok {
			t.Errorf("missing SP %s", name)
		}
	}
	if len(w.CDNs) != 5 {
		t.Errorf("CDNs = %d, want 5", len(w.CDNs))
	}
}

// TestTable2GroundTruth re-derives Table 2: for each roaming deployment,
// the classifier must assign the architecture and PGW provider/country
// the paper reports, from the session's public IP alone.
func TestTable2GroundTruth(t *testing.T) {
	w := world(t)
	cl := &core.Classifier{Reg: w.Reg}
	src := rng.New(2)

	type want struct {
		arch      ipx.Architecture
		providers map[string]bool // allowed PGW provider orgs
		countries map[string]bool // allowed PGW countries
	}
	cases := map[string]want{
		// Singtel HR block.
		"ARE": {ipx.HR, map[string]bool{"Singtel": true}, map[string]bool{"SGP": true}},
		"JPN": {ipx.HR, map[string]bool{"Singtel": true}, map[string]bool{"SGP": true}},
		"PAK": {ipx.HR, map[string]bool{"Singtel": true}, map[string]bool{"SGP": true}},
		"MYS": {ipx.HR, map[string]bool{"Singtel": true}, map[string]bool{"SGP": true}},
		"CHN": {ipx.HR, map[string]bool{"Singtel": true}, map[string]bool{"SGP": true}},
		// Play IHBO block.
		"GBR": {ipx.IHBO, map[string]bool{"Packet Host": true, "OVH SAS": true}, map[string]bool{"NLD": true, "FRA": true}},
		"DEU": {ipx.IHBO, map[string]bool{"Packet Host": true, "OVH SAS": true}, map[string]bool{"NLD": true, "FRA": true}},
		"GEO": {ipx.IHBO, map[string]bool{"Packet Host": true, "OVH SAS": true}, map[string]bool{"NLD": true, "FRA": true}},
		"ESP": {ipx.IHBO, map[string]bool{"Packet Host": true, "OVH SAS": true}, map[string]bool{"NLD": true, "FRA": true}},
		// Telna Mobile IHBO block.
		"QAT": {ipx.IHBO, map[string]bool{"Packet Host": true, "OVH SAS": true}, map[string]bool{"NLD": true, "FRA": true}},
		"SAU": {ipx.IHBO, map[string]bool{"Packet Host": true}, map[string]bool{"NLD": true}},
		"TUR": {ipx.IHBO, map[string]bool{"Packet Host": true, "OVH SAS": true}, map[string]bool{"NLD": true, "FRA": true}},
		"EGY": {ipx.IHBO, map[string]bool{"Packet Host": true, "OVH SAS": true}, map[string]bool{"NLD": true, "FRA": true}},
		// Telecom Italia -> Wireless Logic (GBR).
		"MDA": {ipx.IHBO, map[string]bool{"Wireless Logic": true}, map[string]bool{"GBR": true}},
		"KEN": {ipx.IHBO, map[string]bool{"Wireless Logic": true}, map[string]bool{"GBR": true}},
		"FIN": {ipx.IHBO, map[string]bool{"Wireless Logic": true}, map[string]bool{"GBR": true}},
		"AZE": {ipx.IHBO, map[string]bool{"Wireless Logic": true}, map[string]bool{"GBR": true}},
		// Orange -> Webbing (NLD / USA).
		"ITA": {ipx.IHBO, map[string]bool{"Webbing USA": true}, map[string]bool{"NLD": true}},
		"USA": {ipx.IHBO, map[string]bool{"Webbing USA": true}, map[string]bool{"USA": true}},
		// Polkomtel -> Packet Host Virginia.
		"FRA": {ipx.IHBO, map[string]bool{"Packet Host": true}, map[string]bool{"USA": true}},
		"UZB": {ipx.IHBO, map[string]bool{"Packet Host": true}, map[string]bool{"USA": true}},
		// Native.
		"KOR": {ipx.Native, nil, nil},
		"MDV": {ipx.Native, nil, nil},
		"THA": {ipx.Native, nil, nil},
	}
	for iso, wantRow := range cases {
		d := w.Deployments[iso]
		if d == nil {
			t.Fatalf("missing deployment %s", iso)
		}
		// Attach several times: alternating providers must stay within
		// the allowed sets.
		for i := 0; i < 8; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				t.Fatalf("%s attach: %v", iso, err)
			}
			got, err := cl.Classify(s.PublicIP, d.BMNO, d.VMNO)
			if err != nil {
				t.Fatalf("%s classify: %v", iso, err)
			}
			if got.Arch != wantRow.arch {
				t.Fatalf("%s: arch = %s, want %s", iso, got.Arch, wantRow.arch)
			}
			if wantRow.providers != nil && !wantRow.providers[got.PGWAS.Org] {
				t.Fatalf("%s: PGW provider = %s, want one of %v", iso, got.PGWAS.Org, wantRow.providers)
			}
			if wantRow.countries != nil && !wantRow.countries[got.PGWCountry] {
				t.Fatalf("%s: PGW country = %s, want one of %v", iso, got.PGWCountry, wantRow.countries)
			}
		}
	}
}

func TestSessionPathsRouteToAllSPs(t *testing.T) {
	w := world(t)
	src := rng.New(3)
	for _, key := range []string{"PAK", "DEU", "KOR", "USA"} {
		d := w.Deployments[key]
		s, err := d.AttachESIM(src)
		if err != nil {
			t.Fatal(err)
		}
		for spName, sp := range w.SPs {
			edge, err := sp.NearestEdge(s.Site.Loc)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.PathTo(edge.Server)
			if err != nil {
				t.Fatalf("%s -> %s: %v", key, spName, err)
			}
			if p.Hops() < 3 {
				t.Errorf("%s -> %s: implausibly short path (%d hops)", key, spName, p.Hops())
			}
			// The path must pass through the assigned PGW.
			var sawPGW bool
			for _, n := range p.Nodes {
				if n.ID == s.PGWNode {
					sawPGW = true
				}
			}
			if !sawPGW {
				t.Errorf("%s -> %s: path bypassed the assigned PGW", key, spName)
			}
		}
	}
}

func TestTracerouteDemarcationPAK(t *testing.T) {
	w := world(t)
	src := rng.New(4)
	d := w.Deployments["PAK"]
	esim, err := d.AttachESIM(src)
	if err != nil {
		t.Fatal(err)
	}
	google := w.SPs["Google"]
	edge, _ := google.NearestEdge(esim.Site.Loc)
	p, err := esim.PathTo(edge.Server)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Net.Traceroute(p, src)
	pa, err := core.Demarcate(tr, w.Reg)
	if err != nil {
		t.Fatal(err)
	}
	if pa.PGW.AS.Number != 45143 || pa.PGW.Country != "SGP" {
		t.Errorf("eSIM PGW = %s/%s, want Singtel/SGP", pa.PGW.AS.Number, pa.PGW.Country)
	}
	if pa.PrivateHops < 5 {
		t.Errorf("HR eSIM private hops = %d, want >= 5", pa.PrivateHops)
	}
	// Physical SIM: much shorter private path, local PGW.
	sim, err := d.AttachSIM(src)
	if err != nil {
		t.Fatal(err)
	}
	edgeSIM, _ := google.NearestEdge(d.Loc)
	pSIM, err := sim.PathTo(edgeSIM.Server)
	if err != nil {
		t.Fatal(err)
	}
	paSIM, err := core.Demarcate(w.Net.Traceroute(pSIM, src), w.Reg)
	if err != nil {
		t.Fatal(err)
	}
	if paSIM.PGW.AS.Number != 45669 {
		t.Errorf("SIM PGW AS = %s, want Jazz AS45669", paSIM.PGW.AS.Number)
	}
	if paSIM.PrivateHops >= pa.PrivateHops {
		t.Errorf("SIM private hops (%d) must be below eSIM's (%d)", paSIM.PrivateHops, pa.PrivateHops)
	}
	// Jazz's public path crosses its transit carriers: >= 3 unique ASNs.
	if paSIM.UniqueASNs < 3 {
		t.Errorf("Jazz public path ASNs = %d, want >= 3 (LINKdotNET, Transworld, Google)", paSIM.UniqueASNs)
	}
}

// TestEmnifyValidation is the Section 4.3.1 methodology check: the
// demarcation must identify AS16509 (Amazon) in Dublin, matching the
// operator-confirmed ground truth.
func TestEmnifyValidation(t *testing.T) {
	w := world(t)
	src := rng.New(5)
	d := w.Deployments["EMNIFY"]
	s, err := d.AttachESIM(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, spName := range []string{"Google", "Facebook"} {
		edge, _ := w.SPs[spName].NearestEdge(s.Site.Loc)
		p, err := s.PathTo(edge.Server)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := core.Demarcate(w.Net.Traceroute(p, src), w.Reg)
		if err != nil {
			t.Fatal(err)
		}
		if pa.PGW.AS.Number != 16509 {
			t.Errorf("%s: PGW AS = %s, want AS16509", spName, pa.PGW.AS.Number)
		}
		if pa.PGW.City != "Dublin" {
			t.Errorf("%s: PGW city = %s, want Dublin", spName, pa.PGW.City)
		}
	}
}

func TestHRTunnelSpans(t *testing.T) {
	w := world(t)
	src := rng.New(6)
	// UAE and Pakistan HR tunnels terminate in Singapore: spans must
	// roughly match geography (Figure 3's long solid lines).
	for iso, wantMin := range map[string]float64{"ARE": 5000, "PAK": 4000} {
		s, err := w.Deployments[iso].AttachESIM(src)
		if err != nil {
			t.Fatal(err)
		}
		if span := s.TunnelSpanKm(); span < wantMin || span > 8000 {
			t.Errorf("%s tunnel span = %.0f km", iso, span)
		}
	}
	// Native sessions carry no roaming tunnel.
	s, _ := w.Deployments["THA"].AttachESIM(src)
	if span := s.TunnelSpanKm(); span != 0 {
		t.Errorf("native eSIM must not have a roaming tunnel, spans %.0f km", span)
	}
}

func TestUAEBeatsPakistanToSingtelPGW(t *testing.T) {
	w := world(t)
	src := rng.New(7)
	rtt := func(iso string) float64 {
		var sum float64
		const n = 30
		for i := 0; i < n; i++ {
			s, err := w.Deployments[iso].AttachESIM(src)
			if err != nil {
				t.Fatal(err)
			}
			p, err := s.PathTo(s.PGWNode)
			if err != nil {
				t.Fatal(err)
			}
			sum += w.Net.RTTms(p, src)
		}
		return sum / n
	}
	uae, pak := rtt("ARE"), rtt("PAK")
	if uae >= pak {
		t.Errorf("UAE RTT to Singtel PGW (%.1f) should beat Pakistan's (%.1f) despite longer distance", uae, pak)
	}
}

func TestOVHPinningInWorld(t *testing.T) {
	w := world(t)
	src := rng.New(8)
	// Qatar (Telna) must always hit the same OVH address when it lands
	// on OVH; Play eSIMs never use that address.
	var qatarOVH = map[string]bool{}
	var playOVH = map[string]bool{}
	for i := 0; i < 300; i++ {
		sq, err := w.Deployments["QAT"].AttachESIM(src)
		if err != nil {
			t.Fatal(err)
		}
		if sq.Provider.Name == "OVH SAS" {
			qatarOVH[sq.PGWAddr.String()] = true
		}
		sg, err := w.Deployments["DEU"].AttachESIM(src)
		if err != nil {
			t.Fatal(err)
		}
		if sg.Provider.Name == "OVH SAS" {
			playOVH[sg.PGWAddr.String()] = true
		}
	}
	if len(qatarOVH) != 1 {
		t.Errorf("Qatar used %d OVH addresses, want exactly 1 (pinned)", len(qatarOVH))
	}
	for addr := range qatarOVH {
		if playOVH[addr] {
			t.Errorf("Play eSIM reused Telna's pinned OVH address %s", addr)
		}
	}
	if len(playOVH) < 3 {
		t.Errorf("Play rotated over %d OVH addresses, want several", len(playOVH))
	}
}

func TestProfilesAndIMSIs(t *testing.T) {
	w := world(t)
	for key, d := range w.Deployments {
		if d.ESIMProfile == nil || !d.ESIMProfile.IMSI.Valid() {
			t.Errorf("%s: bad eSIM profile", key)
		}
		if d.ESIMProfile.Issuer != d.BMNO {
			t.Errorf("%s: eSIM issuer mismatch", key)
		}
		if d.Spec.SIMOperator != "" {
			if d.SIMProfile == nil || d.SIMProfile.Kind != mno.PhysicalSIM {
				t.Errorf("%s: bad SIM profile", key)
			}
		}
	}
	// Airalo profiles across a shared b-MNO come from one leased range.
	deu := w.Deployments["DEU"].ESIMProfile
	esp := w.Deployments["ESP"].ESIMProfile
	if deu.IMSI[:8] != esp.IMSI[:8] {
		t.Errorf("Play eSIMs should share the leased prefix: %s vs %s", deu.IMSI, esp.IMSI)
	}
}

func TestDNSConfigPerArchitecture(t *testing.T) {
	w := world(t)
	src := rng.New(9)
	ihbo, _ := w.Deployments["DEU"].AttachESIM(src)
	if ihbo.DNS.Anycast == nil {
		t.Error("IHBO eSIM must use Google anycast DNS")
	}
	hr, _ := w.Deployments["PAK"].AttachESIM(src)
	if hr.DNS.Resolver == nil || hr.DNS.Resolver.ASN != 45143 {
		t.Error("HR eSIM must use the Singtel resolver")
	}
	sim, _ := w.Deployments["PAK"].AttachSIM(src)
	if sim.DNS.Resolver == nil || sim.DNS.Resolver.ASN != 45669 {
		t.Error("Jazz SIM must use the Jazz resolver")
	}
	// IHBO DNS lands in the PGW's country.
	effective, err := ihbo.DNS.Effective(ihbo.Site.Loc)
	if err != nil {
		t.Fatal(err)
	}
	if !ihbo.DNS.UseDoH {
		t.Error("IHBO eSIM should have DoH enabled (the Android default)")
	}
	if effective.Country != ihbo.Site.Country {
		t.Errorf("anycast resolver in %s, PGW in %s", effective.Country, ihbo.Site.Country)
	}
}

// TestAttachRetainsNothing: a session is the only owner of what its attach
// built. Ten thousand roaming eSIM attaches, each session dropped, leave
// the heap as they found it — no per-session record, route or resolver
// copy grows with the number of sessions a world has served.
func TestAttachRetainsNothing(t *testing.T) {
	d := world(t).Deployments["PAK"]
	src := rng.New(8)
	attach := func(n int) {
		for i := 0; i < n; i++ {
			s, err := d.AttachESIM(src)
			if err != nil {
				t.Fatal(err)
			}
			if s.TunnelSpanKm() == 0 {
				t.Fatal("a PAK eSIM session must roam through a GTP tunnel")
			}
		}
	}
	attach(100) // warm up: any one-time state is built before the baseline
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	attach(10000)
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapObjects) - int64(before.HeapObjects)
	t.Logf("live heap objects after 10000 attaches: %+d", grew)
	if grew > 200 {
		t.Errorf("10000 dropped sessions left %d more live heap objects, want at most 200", grew)
	}
}

// TestPathToSharedAndAllocFree pins the path-immutability contract from
// the caller's side: PathTo hands out the network's cached composition —
// one shared *Path, no per-call copy — and a topology change drops it.
func TestPathToSharedAndAllocFree(t *testing.T) {
	w := world(t)
	d := w.Deployments["PAK"]
	s, err := d.AttachESIM(rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	edge, _ := w.SPs["Google"].NearestEdge(s.Site.Loc)
	first, err := s.PathTo(edge.Server)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.PathTo(edge.Server)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Error("two PathTo calls on a warm session returned different *Path values")
	}
	private, _ := w.Net.Route(s.UE, s.PGWNode)
	public, _ := w.Net.Route(s.PGWNode, edge.Server)
	want, err := netsim.ConcatPaths(private, public)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Error("cached composition differs from ConcatPaths(private leg, public leg)")
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, err := s.PathTo(edge.Server); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("warm PathTo allocates %.1f times per call, want 0", a)
	}

	// The world's network is frozen; a hand-built session over a network
	// still in its build phase shows the invalidation: ue - a - pgw - srv,
	// then a faster public leg pgw - b - srv appears.
	n := netsim.New()
	add := func(name string) netsim.NodeID { return n.AddNode(netsim.Node{Name: name}) }
	ue, a, pgw, srv, b := add("ue"), add("a"), add("pgw"), add("srv"), add("b")
	n.Connect(ue, a, netsim.Link{DelayMs: 1})
	n.Connect(a, pgw, netsim.Link{DelayMs: 1})
	n.Connect(pgw, srv, netsim.Link{DelayMs: 50})
	hand := &Session{D: &Deployment{world: &World{Net: n}}, UE: ue, PGWNode: pgw}
	before, err := hand.PathTo(srv)
	if err != nil {
		t.Fatal(err)
	}
	if before.Hops() != 3 {
		t.Fatalf("hand-built path has %d hops, want 3", before.Hops())
	}
	n.Connect(pgw, b, netsim.Link{DelayMs: 1})
	n.Connect(b, srv, netsim.Link{DelayMs: 1})
	after, err := hand.PathTo(srv)
	if err != nil {
		t.Fatal(err)
	}
	if after == before || after.Hops() != 4 {
		t.Errorf("after a topology change PathTo returned %d hops (same pointer: %v), want the new 4-hop path",
			after.Hops(), after == before)
	}
	if before.Hops() != 3 {
		t.Error("the path handed out before the change was written to")
	}
}

// TestNearestMemoMatchesDirect: the memoised nearest-PoP answers are the
// direct haversine scan's — first edge in slice order on a tie — for
// every provider, CDN and the DNS anycast group against every PGW site
// and visited location of the seed-42 world, asked from 8 goroutines at
// once on a fresh (cold-memo) world.
func TestNearestMemoMatchesDirect(t *testing.T) {
	w, err := Build(42)
	if err != nil {
		t.Fatal(err)
	}
	var locs []geo.Point
	for _, p := range w.Providers {
		for _, s := range p.Sites {
			locs = append(locs, s.Loc)
		}
	}
	for _, d := range w.Deployments {
		locs = append(locs, d.Loc)
	}
	direct := func(p geo.Point, n int, loc func(int) geo.Point) int {
		best := 0
		for i := 1; i < n; i++ {
			if geo.DistanceKm(p, loc(i)) < geo.DistanceKm(p, loc(best)) {
				best = i
			}
		}
		return best
	}
	sps := []*inet.ServiceProvider{}
	for _, sp := range w.SPs {
		sps = append(sps, sp)
	}
	for _, c := range w.CDNs {
		sps = append(sps, c.SP)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range locs {
				p := locs[(k+g*len(locs)/8)%len(locs)] // each goroutine starts elsewhere
				for _, sp := range sps {
					want := sp.Edges[direct(p, len(sp.Edges), func(i int) geo.Point { return sp.Edges[i].Loc })]
					if got, err := sp.NearestEdge(p); err != nil || got != want {
						t.Errorf("%s from %v: NearestEdge = %s, %v; direct scan gives %s", sp.Name, p, got.City, err, want.City)
					}
				}
				dns := w.GoogleDNS
				want := dns.Instances[direct(p, len(dns.Instances), func(i int) geo.Point { return dns.Instances[i].Loc })]
				if got, err := dns.Nearest(p); err != nil || got != want {
					t.Errorf("GoogleDNS from %v: Nearest = %s, %v; direct scan gives %s", p, got.City, err, want.City)
				}
			}
		}(g)
	}
	wg.Wait()
	google := w.SPs["Google"]
	if a := testing.AllocsPerRun(100, func() { _, _ = google.NearestEdge(locs[0]) }); a != 0 {
		t.Errorf("a memoised NearestEdge allocates %.0f times, want 0", a)
	}
}
