package ipreg

import (
	"testing"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.RegisterAS(AS{Number: 45143, Org: "Singtel", Country: "SGP", Kind: KindMNO})
	r.RegisterAS(AS{Number: 54825, Org: "Packet Host", Country: "USA", Kind: KindIPX})
	r.RegisterAS(AS{Number: 15169, Org: "Google", Country: "USA", Kind: KindContent})
	sgp := geo.MustCity("Singapore")
	ams := geo.MustCity("Amsterdam")
	r.MustRegisterPrefix(ipaddr.MustParsePrefix("202.166.126.0/24"), 45143, sgp.Name, "SGP", sgp.Loc)
	r.MustRegisterPrefix(ipaddr.MustParsePrefix("147.75.32.0/20"), 54825, ams.Name, "NLD", ams.Loc)
	r.MustRegisterPrefix(ipaddr.MustParsePrefix("8.8.8.0/24"), 15169, "Ashburn", "USA", geo.MustCity("Ashburn").Loc)
	return r
}

func TestLookupBasic(t *testing.T) {
	r := newTestRegistry(t)
	info, ok := r.Lookup(ipaddr.MustParse("202.166.126.44"))
	if !ok {
		t.Fatal("lookup failed")
	}
	if info.AS.Number != 45143 || info.AS.Org != "Singtel" {
		t.Errorf("wrong AS: %+v", info.AS)
	}
	if info.Country != "SGP" || info.City != "Singapore" {
		t.Errorf("wrong geo: %s/%s", info.City, info.Country)
	}
	if info.Prefix.String() != "202.166.126.0/24" {
		t.Errorf("wrong prefix: %s", info.Prefix)
	}
}

func TestLookupMiss(t *testing.T) {
	r := newTestRegistry(t)
	if _, ok := r.Lookup(ipaddr.MustParse("203.0.113.7")); ok {
		t.Error("unregistered address should miss")
	}
}

func TestLookupPrivateNeverResolves(t *testing.T) {
	r := newTestRegistry(t)
	// Even if someone registered RFC1918 space, lookups must refuse:
	// the demarcation logic depends on private hops being anonymous.
	r.RegisterAS(AS{Number: 64512, Org: "private", Country: "USA", Kind: KindOther})
	r.MustRegisterPrefix(ipaddr.MustParsePrefix("10.0.0.0/8"), 64512, "Nowhere", "USA", geo.Point{Lat: 1, Lon: 1})
	for _, s := range []string{"10.1.2.3", "192.168.0.1", "100.64.3.4", "172.16.9.9"} {
		if _, ok := r.Lookup(ipaddr.MustParse(s)); ok {
			t.Errorf("private %s resolved", s)
		}
	}
}

func TestLongestPrefixWins(t *testing.T) {
	r := newTestRegistry(t)
	r.RegisterAS(AS{Number: 99, Org: "More Specific Org", Country: "FRA", Kind: KindCloud})
	lille := geo.MustCity("Lille")
	r.MustRegisterPrefix(ipaddr.MustParsePrefix("147.75.40.0/24"), 99, lille.Name, "FRA", lille.Loc)
	info, ok := r.Lookup(ipaddr.MustParse("147.75.40.9"))
	if !ok {
		t.Fatal("lookup failed")
	}
	if info.AS.Number != 99 {
		t.Errorf("expected most-specific AS99, got %s", info.AS.Number)
	}
	// An address in the /20 but outside the /24 still maps to AS54825.
	info, ok = r.Lookup(ipaddr.MustParse("147.75.41.9"))
	if !ok || info.AS.Number != 54825 {
		t.Errorf("covering prefix lookup: ok=%v as=%v", ok, info.AS.Number)
	}
}

func TestRegisterPrefixRequiresAS(t *testing.T) {
	r := NewRegistry()
	err := r.RegisterPrefix(ipaddr.MustParsePrefix("1.0.0.0/24"), 1234, "X", "USA", geo.Point{})
	if err == nil {
		t.Error("prefix for unregistered AS should fail")
	}
}

func TestASNString(t *testing.T) {
	if ASN(54825).String() != "AS54825" {
		t.Errorf("got %s", ASN(54825).String())
	}
}

func TestLookupAS(t *testing.T) {
	r := newTestRegistry(t)
	as, ok := r.LookupAS(45143)
	if !ok || as.Org != "Singtel" || as.Kind != KindMNO {
		t.Errorf("LookupAS: ok=%v %+v", ok, as)
	}
	if _, ok := r.LookupAS(1); ok {
		t.Error("unknown ASN should miss")
	}
}

func TestInterleavedRegistrationAndLookup(t *testing.T) {
	r := newTestRegistry(t)
	if _, ok := r.Lookup(ipaddr.MustParse("8.8.8.8")); !ok {
		t.Fatal("initial lookup failed")
	}
	// Register after a lookup has sorted the slice; lookup must re-sort.
	r.RegisterAS(AS{Number: 16509, Org: "Amazon.com, Inc.", Country: "USA", Kind: KindCloud})
	dub := geo.MustCity("Dublin")
	r.MustRegisterPrefix(ipaddr.MustParsePrefix("3.248.0.0/16"), 16509, dub.Name, "IRL", dub.Loc)
	info, ok := r.Lookup(ipaddr.MustParse("3.248.7.7"))
	if !ok || info.AS.Org != "Amazon.com, Inc." || info.City != "Dublin" {
		t.Errorf("post-registration lookup: ok=%v %+v", ok, info)
	}
	if r.PrefixCount() != 4 {
		t.Errorf("PrefixCount = %d", r.PrefixCount())
	}
}

func TestEveryAddressInPrefixResolves(t *testing.T) {
	r := newTestRegistry(t)
	p := ipaddr.MustParsePrefix("202.166.126.0/24")
	for i := uint64(0); i < p.Size(); i++ {
		if _, ok := r.Lookup(p.Nth(i)); !ok {
			t.Fatalf("address %s inside registered prefix did not resolve", p.Nth(i))
		}
	}
}
