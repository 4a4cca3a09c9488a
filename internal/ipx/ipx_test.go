package ipx

import (
	"testing"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/rng"
)

func addrs(ss ...string) []ipaddr.Addr {
	out := make([]ipaddr.Addr, len(ss))
	for i, s := range ss {
		out[i] = ipaddr.MustParse(s)
	}
	return out
}

func testProviders() (packetHost, ovh, singtel *PGWProvider) {
	packetHost = &PGWProvider{
		Name: "Packet Host", ASN: 54825, Policy: AssignUniform, PrivateHops: 6,
		Sites: []PGWSite{
			{City: "Amsterdam", Country: "NLD", Loc: geo.MustCity("Amsterdam").Loc,
				Addrs: addrs("147.75.32.1", "147.75.32.2")},
			{City: "Ashburn", Country: "USA", Loc: geo.MustCity("Ashburn").Loc,
				Addrs: addrs("147.75.64.1", "147.75.64.2")},
		},
	}
	ovh = &PGWProvider{
		Name: "OVH SAS", ASN: 16276, Policy: AssignPerBMNO, PrivateHops: 3,
		Sites: []PGWSite{
			{City: "Lille", Country: "FRA", Loc: geo.MustCity("Lille").Loc,
				Addrs: addrs("51.38.1.1", "51.38.1.2", "51.38.1.3", "51.38.1.4", "51.38.1.5")},
			{City: "Wattrelos", Country: "FRA", Loc: geo.MustCity("Wattrelos").Loc,
				Addrs: addrs("51.38.2.1")},
		},
		Assignments: map[string][]ipaddr.Addr{
			"Telna Mobile": addrs("51.38.1.1"),
			"Play":         addrs("51.38.1.2", "51.38.1.3", "51.38.1.4", "51.38.1.5"),
		},
	}
	singtel = &PGWProvider{
		Name: "Singtel", ASN: 45143, Policy: AssignUniform, PrivateHops: 8,
		Sites: []PGWSite{
			{City: "Singapore", Country: "SGP", Loc: geo.MustCity("Singapore").Loc,
				Addrs: addrs("202.166.126.1", "202.166.126.2", "202.166.126.3", "202.166.126.4")},
		},
	}
	return
}

func TestPerBMNOAssignment(t *testing.T) {
	_, ovh, _ := testProviders()
	opts := []AgreementOption{{Provider: ovh, SiteCity: "Lille"}}
	src := rng.New(3)
	pinned := ipaddr.MustParse("51.38.1.1")
	playSeen := map[ipaddr.Addr]bool{}
	for i := 0; i < 300; i++ {
		bt, err := PickBreakout(IHBO, opts, "Telna Mobile", src)
		if err != nil {
			t.Fatal(err)
		}
		if bt.Addr != pinned {
			t.Fatalf("Telna must be pinned to %s, got %s", pinned, bt.Addr)
		}
		bp, err := PickBreakout(IHBO, opts, "Play", src)
		if err != nil {
			t.Fatal(err)
		}
		if bp.Addr == pinned {
			t.Fatalf("Play must never use Telna's pinned address")
		}
		playSeen[bp.Addr] = true
	}
	if len(playSeen) != 4 {
		t.Errorf("Play should rotate across 4 addresses, saw %d", len(playSeen))
	}
}

func TestGeoNearestSelector(t *testing.T) {
	ph, ovh, singtel := testProviders()
	g := &GeoNearestSelector{Arch: IHBO, Pool: []*PGWProvider{ph, ovh, singtel}}
	src := rng.New(5)
	// A user in Paris should break out at Lille/Wattrelos (OVH), not
	// Singapore or Ashburn.
	b, err := g.Select("Play", geo.MustCity("Paris").Loc, src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Provider.Name != "OVH SAS" {
		t.Errorf("Paris user routed to %s/%s", b.Provider.Name, b.Site.City)
	}
	// A user in Kuala Lumpur should get Singapore.
	b, err = g.Select("Play", geo.MustCity("Kuala Lumpur").Loc, src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Site.City != "Singapore" {
		t.Errorf("KL user routed to %s", b.Site.City)
	}
	empty := &GeoNearestSelector{Arch: IHBO}
	if _, err := empty.Select("Play", geo.Point{}, src); err == nil {
		t.Error("empty pool should error")
	}
}

func TestProviderSiteLookup(t *testing.T) {
	ph, _, _ := testProviders()
	s, ok := ph.Site(ipaddr.MustParse("147.75.64.2"))
	if !ok || s.City != "Ashburn" {
		t.Errorf("Site lookup: ok=%v city=%s", ok, s.City)
	}
	if _, ok := ph.Site(ipaddr.MustParse("1.2.3.4")); ok {
		t.Error("foreign address should not resolve to a site")
	}
}

func TestStickyPolicy(t *testing.T) {
	p := &PGWProvider{Name: "Wireless Logic", ASN: 51320, Policy: AssignSticky,
		Sites: []PGWSite{{City: "London", Country: "GBR", Loc: geo.MustCity("London").Loc,
			Addrs: addrs("94.1.1.1", "94.1.1.2")}}}
	opts := []AgreementOption{{Provider: p, SiteCity: "London"}}
	src := rng.New(6)
	first, err := PickBreakout(IHBO, opts, "Telecom Italia", src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b, _ := PickBreakout(IHBO, opts, "Telecom Italia", src)
		if b.Addr != first.Addr {
			t.Fatal("sticky policy must always return the same address")
		}
	}
}

func TestPickBreakoutDirect(t *testing.T) {
	ph, ovh, _ := testProviders()
	src := rng.New(42)
	opts := []AgreementOption{
		{Provider: ph, SiteCity: "Amsterdam", Weight: 1},
		{Provider: ovh, SiteCity: "Lille", Weight: 1},
	}
	seen := map[string]int{}
	for i := 0; i < 200; i++ {
		b, err := PickBreakout(IHBO, opts, "Play", src)
		if err != nil {
			t.Fatal(err)
		}
		if b.Arch != IHBO {
			t.Fatal("arch not propagated")
		}
		seen[b.Provider.Name]++
	}
	if seen["Packet Host"] < 50 || seen["OVH SAS"] < 50 {
		t.Errorf("providers should alternate, got %v", seen)
	}
	if _, err := PickBreakout(IHBO, nil, "Play", src); err == nil {
		t.Error("empty options should error")
	}
	bad := []AgreementOption{{Provider: ph, SiteCity: "Atlantis"}}
	if _, err := PickBreakout(IHBO, bad, "Play", src); err == nil {
		t.Error("unknown site should error")
	}
}
