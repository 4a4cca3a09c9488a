package inet

import (
	"testing"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

func newBuilder() *Builder {
	return NewBuilder(netsim.New(), ipreg.NewRegistry(), rng.New(1))
}

func googleSpec() SPSpec {
	return SPSpec{
		Name: "Google", ASN: 15169, Kind: ipreg.KindContent,
		Prefix:          ipaddr.MustParsePrefix("142.250.0.0/16"),
		EdgeCities:      []string{"Amsterdam", "Singapore", "Ashburn", "Frankfurt", "Mumbai"},
		MinInternalHops: 2, MaxInternalHops: 6,
	}
}

func TestAddServiceProvider(t *testing.T) {
	b := newBuilder()
	sp, err := b.AddServiceProvider(googleSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Edges) != 5 {
		t.Fatalf("edges = %d", len(sp.Edges))
	}
	for _, e := range sp.Edges {
		if e.InternalHops < 2 || e.InternalHops > 6 {
			t.Errorf("edge %s internal hops = %d", e.City, e.InternalHops)
		}
		// Server address resolves to Google's AS at the edge city.
		info, ok := b.Reg.Lookup(e.ServerAddr)
		if !ok {
			t.Fatalf("server addr %s not registered", e.ServerAddr)
		}
		if info.AS.Number != 15169 || info.City != e.City {
			t.Errorf("edge %s resolves to %s/%s", e.City, info.AS.Number, info.City)
		}
		// Peering router to server must be routable.
		p, err := b.Net.Route(e.Peering, e.Server)
		if err != nil {
			t.Fatalf("edge %s not internally routable: %v", e.City, err)
		}
		if p.Hops() != e.InternalHops+1 {
			t.Errorf("edge %s path hops = %d, want %d", e.City, p.Hops(), e.InternalHops+1)
		}
	}
}

func TestAddServiceProviderValidation(t *testing.T) {
	b := newBuilder()
	if _, err := b.AddServiceProvider(googleSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddServiceProvider(googleSpec()); err == nil {
		t.Error("duplicate SP accepted")
	}
	bad := googleSpec()
	bad.Name = "NoEdges"
	bad.EdgeCities = nil
	if _, err := b.AddServiceProvider(bad); err == nil {
		t.Error("SP without edges accepted")
	}
	bad2 := googleSpec()
	bad2.Name = "BadCity"
	bad2.Prefix = ipaddr.MustParsePrefix("9.0.0.0/16")
	bad2.EdgeCities = []string{"Atlantis"}
	if _, err := b.AddServiceProvider(bad2); err == nil {
		t.Error("unknown city accepted")
	}
	bad3 := googleSpec()
	bad3.Name = "BadHops"
	bad3.Prefix = ipaddr.MustParsePrefix("11.0.0.0/16")
	bad3.MinInternalHops = 5
	bad3.MaxInternalHops = 2
	if _, err := b.AddServiceProvider(bad3); err == nil {
		t.Error("inverted hop bounds accepted")
	}
}

func TestNearestEdgeAnycast(t *testing.T) {
	b := newBuilder()
	sp, _ := b.AddServiceProvider(googleSpec())
	e, err := sp.NearestEdge(geo.MustCity("Paris").Loc)
	if err != nil {
		t.Fatal(err)
	}
	if e.City != "Amsterdam" && e.City != "Frankfurt" {
		t.Errorf("Paris user got edge %s", e.City)
	}
	e, _ = sp.NearestEdge(geo.MustCity("Kuala Lumpur").Loc)
	if e.City != "Singapore" {
		t.Errorf("KL user got edge %s", e.City)
	}
	var empty ServiceProvider
	if _, err := empty.NearestEdge(geo.Point{}); err == nil {
		t.Error("empty SP should error")
	}
}

func TestEdgeIn(t *testing.T) {
	b := newBuilder()
	sp, _ := b.AddServiceProvider(googleSpec())
	if _, ok := sp.EdgeIn("Singapore"); !ok {
		t.Error("EdgeIn Singapore failed")
	}
	if _, ok := sp.EdgeIn("Paris"); ok {
		t.Error("EdgeIn Paris should miss")
	}
}

func TestPeerWithConnectsNearestEdges(t *testing.T) {
	b := newBuilder()
	sp, _ := b.AddServiceProvider(googleSpec())
	pgw := b.Net.AddNode(netsim.Node{
		Name: "pgw-ams", Kind: netsim.KindPGW,
		Loc:  geo.MustCity("Amsterdam").Loc,
		Addr: ipaddr.MustParse("147.75.32.1"),
	})
	b.PeerWith(pgw, sp, 2, netsim.Link{})
	if d := b.Net.Degree(pgw); d != 2 {
		t.Fatalf("pgw degree = %d, want 2", d)
	}
	// The PGW must now reach the Amsterdam edge server in few hops.
	ams, _ := sp.EdgeIn("Amsterdam")
	p, err := b.Net.Route(pgw, ams.Server)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() > ams.InternalHops+2 {
		t.Errorf("hops = %d, want <= %d", p.Hops(), ams.InternalHops+2)
	}
	// And its latency must be tiny (same city).
	if ow := p.BaseOneWayMs(); ow > 5 {
		t.Errorf("one-way to local edge = %f ms", ow)
	}
}

func TestPeeringPenaltyAffectsRTT(t *testing.T) {
	b := newBuilder()
	sp, _ := b.AddServiceProvider(googleSpec())
	good := b.Net.AddNode(netsim.Node{Name: "good", Kind: netsim.KindPGW, Loc: geo.MustCity("Amsterdam").Loc})
	bad := b.Net.AddNode(netsim.Node{Name: "bad", Kind: netsim.KindPGW, Loc: geo.MustCity("Amsterdam").Loc})
	b.PeerWith(good, sp, 1, netsim.Link{})
	b.PeerWith(bad, sp, 1, netsim.Link{PeeringPenaltyMs: 25})
	ams, _ := sp.EdgeIn("Amsterdam")
	pg, _ := b.Net.Route(good, ams.Server)
	pb, _ := b.Net.Route(bad, ams.Server)
	if pb.BaseOneWayMs() <= pg.BaseOneWayMs()+20 {
		t.Errorf("penalty not reflected: good=%f bad=%f", pg.BaseOneWayMs(), pb.BaseOneWayMs())
	}
}

func TestNearestEdgeIsArgmin(t *testing.T) {
	b := newBuilder()
	sp, _ := b.AddServiceProvider(googleSpec())
	src := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		p := geo.Point{Lat: src.Uniform(-60, 70), Lon: src.Uniform(-180, 180)}
		got, err := sp.NearestEdge(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range sp.Edges {
			if geo.DistanceKm(p, e.Loc) < geo.DistanceKm(p, got.Loc)-1e-9 {
				t.Fatalf("NearestEdge(%v) = %s, but %s is closer", p, got.City, e.City)
			}
		}
	}
}
