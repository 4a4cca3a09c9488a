// Package ipreg is the simulator's equivalent of the ipinfo/WHOIS
// databases the paper uses: it maps public IP addresses to the autonomous
// system that announces them, the organization behind that AS, and a
// city-level geolocation.
//
// The registry is authoritative by construction — the world builder
// registers every prefix it assigns — which corresponds to the paper's
// (validated) assumption that IP-to-ASN and IP-to-geo mappings for PGW
// addresses are reliable.
package ipreg

import (
	"fmt"
	"sort"
	"sync"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the ASN in the conventional "AS12345" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// OrgKind classifies the organization operating an AS. The tomography
// classifier keys on this to tell an MNO's AS from an IPX/cloud provider's.
type OrgKind string

// Organization kinds.
const (
	KindMNO     OrgKind = "mno"     // mobile network operator
	KindIPX     OrgKind = "ipx"     // IPX provider / PGW infrastructure
	KindCloud   OrgKind = "cloud"   // cloud/hosting provider
	KindContent OrgKind = "content" // content/service provider (Google, Facebook, ...)
	KindTransit OrgKind = "transit" // IP transit carrier
	KindOther   OrgKind = "other"   // anything else
)

// AS describes one autonomous system.
type AS struct {
	Number  ASN
	Org     string  // organization name, e.g. "Singtel"
	Country string  // ISO3 of the org's registration country
	Kind    OrgKind // classification used by the tomography layer
}

// Info is the result of an IP lookup: the AS plus prefix-level geolocation.
type Info struct {
	Addr    ipaddr.Addr
	AS      AS
	Prefix  ipaddr.Prefix
	City    string // geolocation city name
	Country string // geolocation ISO3 (may differ from AS registration country)
	Loc     geo.Point
}

// Registry maps prefixes to announcing ASes with geolocation.
// It is safe for concurrent lookups after construction; registrations and
// lookups may also be interleaved (guarded by a mutex) because the amigo
// testbed registers endpoints while measurements run.
type Registry struct {
	mu       sync.RWMutex
	ases     map[ASN]AS
	prefixes []entry // sorted by base address for binary search
	sorted   bool
}

type entry struct {
	prefix  ipaddr.Prefix
	asn     ASN
	up      int32 // index of the nearest enclosing entry, -1 at a root; set by sortLocked
	city    string
	country string
	loc     geo.Point
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ases: make(map[ASN]AS)}
}

// RegisterAS adds or replaces an AS record.
func (r *Registry) RegisterAS(as AS) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ases[as.Number] = as
}

// RegisterPrefix announces prefix from asn, geolocated at the given city.
// The AS must already be registered, and the prefix must be in the form
// ipaddr.ParsePrefix returns: Bits in 0..32 and no host bits set.
// Overlapping prefixes are allowed; lookups prefer the most specific
// (longest) match, as real routing does.
func (r *Registry) RegisterPrefix(p ipaddr.Prefix, asn ASN, city string, country string, loc geo.Point) error {
	if p.Bits < 0 || p.Bits > 32 {
		return fmt.Errorf("ipreg: prefix %s: length outside 0..32", p)
	}
	if uint32(p.Base)<<p.Bits != 0 {
		return fmt.Errorf("ipreg: prefix %s has host bits set", p)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ases[asn]; !ok {
		return fmt.Errorf("ipreg: prefix %s announced by unregistered %s", p, asn)
	}
	r.prefixes = append(r.prefixes, entry{prefix: p, asn: asn, city: city, country: country, loc: loc})
	r.sorted = false
	return nil
}

// MustRegisterPrefix is RegisterPrefix but panics on error.
func (r *Registry) MustRegisterPrefix(p ipaddr.Prefix, asn ASN, city string, country string, loc geo.Point) {
	if err := r.RegisterPrefix(p, asn, city, country, loc); err != nil {
		panic(err)
	}
}

// LookupAS returns the AS record for a number.
func (r *Registry) LookupAS(asn ASN) (AS, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	as, ok := r.ases[asn]
	return as, ok
}

// Lookup resolves an address to its most-specific registered prefix.
// Private addresses never resolve: like the paper's traceroute analysis,
// hops inside GTP tunnels and provider cores are invisible to WHOIS.
func (r *Registry) Lookup(a ipaddr.Addr) (Info, bool) {
	if a.IsPrivate() {
		return Info{}, false
	}
	// Fast path: once the prefix table is sorted, lookups only need a
	// read lock, so concurrent campaign workers demarcating traceroutes
	// do not serialize here.
	r.mu.RLock()
	if r.sorted {
		info, ok := r.lookupLocked(a)
		r.mu.RUnlock()
		return info, ok
	}
	r.mu.RUnlock()

	r.mu.Lock()
	if !r.sorted {
		r.sortLocked()
	}
	info, ok := r.lookupLocked(a)
	r.mu.Unlock()
	return info, ok
}

// sortLocked orders the table by (base, bits) and links every entry to
// its nearest enclosing entry, in one pass over a stack of the prefixes
// still open at that base. CIDR prefixes either nest or are disjoint, and
// an enclosing prefix sorts before what it encloses, so the stack is one
// chain of nested prefixes. Callers hold r.mu for writing.
func (r *Registry) sortLocked() {
	prefixes := r.prefixes
	sort.Slice(prefixes, func(i, j int) bool {
		if prefixes[i].prefix.Base != prefixes[j].prefix.Base {
			return prefixes[i].prefix.Base < prefixes[j].prefix.Base
		}
		return prefixes[i].prefix.Bits < prefixes[j].prefix.Bits
	})
	var open []int32
	for i := range prefixes {
		p := prefixes[i].prefix
		for len(open) > 0 && !prefixes[open[len(open)-1]].prefix.Contains(p.Base) {
			open = open[:len(open)-1]
		}
		prefixes[i].up = -1
		if len(open) > 0 {
			prefixes[i].up = open[len(open)-1]
		}
		open = append(open, int32(i))
	}
	r.sorted = true
}

// lookupLocked resolves against the sorted table. Callers hold r.mu
// (read or write).
//
// Every prefix containing a has base <= a, so it sits at or below i, the
// last entry whose base is <= a. Those prefixes nest, and the most
// specific of them is the one with the highest index (of identical
// prefixes, the last in the table). Walking the enclosing chain up from
// i cannot step over it: an entry between it and i that misses a lies
// inside it, so that entry's nearest enclosing entry is no lower.
func (r *Registry) lookupLocked(a ipaddr.Addr) (Info, bool) {
	prefixes := r.prefixes
	i := sort.Search(len(prefixes), func(i int) bool { return prefixes[i].prefix.Base > a }) - 1
	for i >= 0 && !prefixes[i].prefix.Contains(a) {
		i = int(prefixes[i].up)
	}
	if i < 0 {
		return Info{}, false
	}
	e := &prefixes[i]
	return Info{
		Addr:    a,
		AS:      r.ases[e.asn],
		Prefix:  e.prefix,
		City:    e.city,
		Country: e.country,
		Loc:     e.loc,
	}, true
}

// PrefixCount returns the number of registered prefixes.
func (r *Registry) PrefixCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.prefixes)
}
