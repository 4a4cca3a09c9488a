package cdnsim

import (
	"testing"

	"roamsim/internal/inet"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/netsim"
	"roamsim/internal/rng"
)

func cloudflare(t *testing.T, hitRate float64) (*Provider, inet.Edge) {
	t.Helper()
	b := inet.NewBuilder(netsim.New(), ipreg.NewRegistry(), rng.New(1))
	sp, err := b.AddServiceProvider(inet.SPSpec{
		Name: "Cloudflare", ASN: 13335, Kind: ipreg.KindContent,
		Prefix:          ipaddr.MustParsePrefix("104.16.0.0/16"),
		EdgeCities:      []string{"Amsterdam", "Singapore"},
		MinInternalHops: 1, MaxInternalHops: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Provider{SP: sp, HitRate: hitRate, OriginPenaltyMedianMs: 120}, sp.Edges[0]
}

func TestFetchHitVsMiss(t *testing.T) {
	src := rng.New(2)
	p, edge := cloudflare(t, 0.9)
	var hits, misses int
	var hitSum, missSum float64
	for i := 0; i < 3000; i++ {
		r := p.Fetch(edge, 10, 100, src)
		if r.TotalMs != r.DNSMs+r.TransferMs {
			t.Fatal("total must equal dns + transfer")
		}
		if r.SizeBytes != ObjectBytes {
			t.Fatal("wrong object size")
		}
		switch r.Cache {
		case CacheHit:
			hits++
			hitSum += r.TotalMs
		case CacheMiss:
			misses++
			missSum += r.TotalMs
		}
	}
	frac := float64(hits) / 3000
	if frac < 0.87 || frac > 0.93 {
		t.Errorf("hit rate = %f, want ~0.9", frac)
	}
	if missSum/float64(misses) <= hitSum/float64(hits)+50 {
		t.Errorf("misses (%f) should be much slower than hits (%f)",
			missSum/float64(misses), hitSum/float64(hits))
	}
}

func TestFetchAlwaysHit(t *testing.T) {
	src := rng.New(3)
	p, edge := cloudflare(t, 1)
	for i := 0; i < 200; i++ {
		if r := p.Fetch(edge, 5, 50, src); r.Cache != CacheHit {
			t.Fatal("hitRate 1 must always hit — the Thailand eSIM case")
		}
	}
}

// TestFetchHeaders checks the fields a curl run reads from the response
// headers: X-Cache, Server, Content-Length and X-Served-By.
func TestFetchHeaders(t *testing.T) {
	src := rng.New(4)
	p, edge := cloudflare(t, 1)
	r := p.Fetch(edge, 5, 50, src)
	if r.Cache != "HIT" {
		t.Errorf("X-Cache = %s", r.Cache)
	}
	if r.Provider != "Cloudflare" {
		t.Errorf("Server = %s", r.Provider)
	}
	if r.SizeBytes != 30288 {
		t.Errorf("Content-Length = %d", r.SizeBytes)
	}
	if r.EdgeCity != edge.City {
		t.Errorf("EdgeCity = %s", r.EdgeCity)
	}
}

func TestProviderNames(t *testing.T) {
	if len(ProviderNames) != 5 {
		t.Fatalf("the device campaign measures 5 CDNs, got %d", len(ProviderNames))
	}
	if ProviderNames[0] != "Cloudflare" {
		t.Error("Cloudflare leads the figure order")
	}
}
