package ipreg_test

import (
	"fmt"
	"testing"

	"roamsim/internal/airalo"
	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
	"roamsim/internal/rng"
)

// probes returns, for every registered prefix, the addresses on and just
// outside its edges: base−1, base, last and last+1.
func probes(r *ipreg.Registry) []ipaddr.Addr {
	var out []ipaddr.Addr
	for _, p := range r.Prefixes() {
		last := p.Base + ipaddr.Addr(p.Size()-1)
		out = append(out, p.Base-1, p.Base, last, last+1)
	}
	return out
}

func checkLookup(t *testing.T, r *ipreg.Registry, a ipaddr.Addr) {
	t.Helper()
	got, gotOK := r.Lookup(a)
	want, wantOK := r.LookupScan(a)
	if got != want || gotOK != wantOK {
		t.Fatalf("Lookup(%s) = %+v, %v; the scan = %+v, %v", a, got, gotOK, want, wantOK)
	}
}

// TestLookupMatchesScan checks the enclosing-chain lookup against the
// backward scan on the seed worlds' registries: every prefix's edges,
// plus seeded random addresses.
func TestLookupMatchesScan(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			w, err := airalo.Build(seed)
			if err != nil {
				t.Fatal(err)
			}
			resolved := 0
			for _, a := range probes(w.Reg) {
				checkLookup(t, w.Reg, a)
				if _, ok := w.Reg.Lookup(a); ok {
					resolved++
				}
			}
			if n := w.Reg.PrefixCount(); resolved < 2*n {
				t.Fatalf("%d of %d edge probes resolved; every prefix's base and last must", resolved, 4*n)
			}
			src := rng.New(seed).Fork("ipreg-probe")
			for i := 0; i < 20000; i++ {
				checkLookup(t, w.Reg, ipaddr.Addr(src.Intn(1<<32)))
			}
		})
	}
}

// fuzzRegistry decodes a prefix set from data, three bytes a prefix: the
// top byte picks one of four /8s so that prefixes nest and overlap, the
// second sets the next eight bits, and the third the length (0..32).
// Bases are masked to their length, so equal inputs give identical
// prefixes; each entry gets its own AS and city, so Info tells
// duplicates apart.
func fuzzRegistry(data []byte) *ipreg.Registry {
	r := ipreg.NewRegistry()
	for i := 0; i+3 <= len(data) && i/3 < 64; i += 3 {
		bits := int(data[i+2]) % 33
		base := uint32(20+data[i]%4)<<24 | uint32(data[i+1])<<16
		if bits < 32 {
			base &^= ^uint32(0) >> bits
		}
		asn := ipreg.ASN(i/3 + 1)
		r.RegisterAS(ipreg.AS{Number: asn, Org: fmt.Sprint("org", asn)})
		p := ipaddr.Prefix{Base: ipaddr.Addr(base), Bits: bits}
		r.MustRegisterPrefix(p, asn, fmt.Sprint("city", asn), "USA", geo.Point{Lat: float64(i)})
	}
	return r
}

// FuzzLookupMatchesScan compares Lookup with the backward scan, full
// Info included, on nested, overlapping and duplicate prefix sets.
func FuzzLookupMatchesScan(f *testing.F) {
	f.Add([]byte{0, 0, 8, 0, 0, 16, 0, 0, 16, 0, 1, 24, 1, 0, 0, 0, 0, 8}, uint32(0x14000001))
	f.Add([]byte{0, 0, 16, 0, 0, 24, 0, 0, 24, 0, 0, 32}, uint32(0x14000000))
	f.Add([]byte{3, 255, 9, 3, 128, 10, 3, 255, 32}, uint32(0x17ff0000))
	f.Fuzz(func(t *testing.T, data []byte, extra uint32) {
		r := fuzzRegistry(data)
		for _, a := range append(probes(r), ipaddr.Addr(extra)) {
			checkLookup(t, r, a)
		}
	})
}

// TestRegisterPrefixValidates: a length outside 0..32 or a base with
// host bits set is refused. Both used to register: a length of 33 then
// panicked inside Prefix.Contains, and a base with host bits set never
// resolved the addresses below it.
func TestRegisterPrefixValidates(t *testing.T) {
	r := ipreg.NewRegistry()
	r.RegisterAS(ipreg.AS{Number: 64500, Org: "Example"})
	base := ipaddr.MustParse("203.0.113.5")
	for _, p := range []ipaddr.Prefix{
		{Base: base, Bits: 24},
		{Base: ipaddr.MustParse("203.0.113.0"), Bits: 33},
		{Base: ipaddr.MustParse("203.0.113.0"), Bits: -1},
		{Base: ipaddr.MustParse("0.0.0.1"), Bits: 0},
	} {
		if err := r.RegisterPrefix(p, 64500, "X", "USA", geo.Point{}); err == nil {
			t.Errorf("RegisterPrefix(%s) accepted", p)
		}
	}
	if n := r.PrefixCount(); n != 0 {
		t.Fatalf("%d invalid prefixes registered", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRegisterPrefix accepted host bits")
			}
		}()
		r.MustRegisterPrefix(ipaddr.Prefix{Base: base, Bits: 24}, 64500, "X", "USA", geo.Point{})
	}()
	for _, s := range []string{"203.0.113.0/24", "203.0.113.5/32", "0.0.0.0/0"} {
		if err := r.RegisterPrefix(ipaddr.MustParsePrefix(s), 64500, "X", "USA", geo.Point{}); err != nil {
			t.Errorf("RegisterPrefix(%s): %v", s, err)
		}
	}
}

// BenchmarkLookup resolves one address inside every prefix of the seed-42
// world, then the backward scan's worst case: an address above every
// base, whose binary search lands on the top of the table.
func BenchmarkLookup(b *testing.B) {
	w, err := airalo.Build(42)
	if err != nil {
		b.Fatal(err)
	}
	var addrs []ipaddr.Addr
	top := ipaddr.Addr(0)
	for _, p := range w.Reg.Prefixes() {
		addrs = append(addrs, p.Base+ipaddr.Addr(p.Size()/2))
		if last := p.Base + ipaddr.Addr(p.Size()-1); last > top {
			top = last
		}
	}
	a := top + 1
	if a == 0 || a.IsPrivate() {
		b.Fatalf("no public address above the table (top %s)", top)
	}
	b.Run("every-prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Reg.Lookup(addrs[i%len(addrs)])
		}
	})
	b.Run("top-of-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Reg.Lookup(a)
		}
	})
}
