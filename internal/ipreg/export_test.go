package ipreg

import (
	"sort"

	"roamsim/internal/ipaddr"
)

// Hooks for the external test package (lookup_test.go), which builds
// whole worlds through airalo and so cannot live inside package ipreg.

// LookupScan is Lookup by the reference method the enclosing chain
// replaced: binary search for the last entry whose base is <= a, then a
// backward scan of every entry below it for the longest containing
// prefix, the first one found winning a tie.
func (r *Registry) LookupScan(a ipaddr.Addr) (Info, bool) {
	if a.IsPrivate() {
		return Info{}, false
	}
	r.Lookup(a) // sorts the table
	r.mu.RLock()
	defer r.mu.RUnlock()
	prefixes := r.prefixes
	i := sort.Search(len(prefixes), func(i int) bool { return prefixes[i].prefix.Base > a }) - 1
	best := -1
	for j := i; j >= 0; j-- {
		e := prefixes[j]
		if e.prefix.Contains(a) && (best == -1 || e.prefix.Bits > prefixes[best].prefix.Bits) {
			best = j
		}
	}
	if best < 0 {
		return Info{}, false
	}
	e := prefixes[best]
	return Info{
		Addr:    a,
		AS:      r.ases[e.asn],
		Prefix:  e.prefix,
		City:    e.city,
		Country: e.country,
		Loc:     e.loc,
	}, true
}

// Prefixes returns every registered prefix, in registration order until
// the first lookup and in table order after it.
func (r *Registry) Prefixes() []ipaddr.Prefix {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ipaddr.Prefix, len(r.prefixes))
	for i, e := range r.prefixes {
		out[i] = e.prefix
	}
	return out
}
