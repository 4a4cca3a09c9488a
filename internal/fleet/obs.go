package fleet

import (
	"roamsim/internal/netsim"
	"roamsim/internal/obs"
)

// RegisterNetObs exports a network's route-cache effectiveness counters
// into the registry, so campaign runs serve a netsim_* family alongside
// the control-plane metrics. The counters are read-on-scrape callbacks
// over atomics the cache maintains anyway — registering them costs the
// simulation nothing. Re-registering the same registry/network pair
// (e.g. across Driver runs) replaces the callbacks and is harmless.
func RegisterNetObs(reg *obs.Registry, n *netsim.Network) {
	if reg == nil || n == nil {
		return
	}
	for i, name := range []string{"netsim_route_cache_hits_total", "netsim_route_cache_misses_total", "netsim_dijkstra_runs_total"} {
		reg.CounterFunc(name, func() float64 {
			hits, misses, runs := n.RouteCacheStats()
			return float64([...]uint64{hits, misses, runs}[i])
		})
	}
}
