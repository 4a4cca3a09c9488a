package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"roamsim/internal/rng"
)

// Path is a routed path: the node sequence and the traversed links
// (len(Links) == len(Nodes)-1).
//
// Paths returned by Route and RouteVia are the cache's own entries,
// shared by every caller and every goroutine that asks for the same
// pair: they are immutable. A caller that needs a variant builds a new
// Path (ConcatPaths copies) and never writes to one it was handed.
//
// Every Path is built by newPath, which folds what the measurements read
// into flat terms once: RTTms, Speedtest and DownloadTimeMs never walk
// the Node and Link structs.
type Path struct {
	Nodes []Node
	Links []Link

	terms      []delayTerm // RTTms's jittered one-way delays, links then nodes
	bottleneck float64     // minimum link bandwidth (0 without links)
	loss       float64     // end-to-end loss probability
	maxRTT     float64     // no RTTms sample over the path exceeds it
}

// delayTerm is one jittered delay of RTTms, base·(lo + span·u) for the
// draw u: rng.Source.Jitter(base, frac) with lo = 1-frac and span =
// (1+frac)-(1-frac), each rounded where Jitter rounds it, so the sample
// is Jitter's to the bit.
type delayTerm struct{ base, lo, span float64 }

func jitterTerm(base, frac float64) delayTerm {
	lo, hi := 1-frac, 1+frac
	return delayTerm{base: base, lo: lo, span: hi - lo}
}

// nodeJitterFrac jitters every node's processing delay in RTTms.
const nodeJitterFrac = 0.3

// newPath builds the path over nodes and links, which it keeps (the
// caller hands them over), and its terms.
//
// maxRTT is exact, not estimated: u < 1 and rounding is monotone, so
// lo + span·u never passes lo + span (nor, when span < 0, lo), a term
// never passes the larger of base·lo and base·(lo+span), and a sum of
// terms added in RTTms's order never passes the sum of those bounds.
func newPath(nodes []Node, links []Link) *Path {
	p := &Path{Nodes: nodes, Links: links, terms: make([]delayTerm, 0, len(links)+len(nodes))}
	bneck, keep := math.Inf(1), 1.0
	for _, l := range links {
		p.terms = append(p.terms, jitterTerm(l.TotalDelayMs(), l.JitterFrac))
		if l.BandwidthMbps < bneck {
			bneck = l.BandwidthMbps
		}
		keep *= 1 - l.LossProb
	}
	if !math.IsInf(bneck, 1) {
		p.bottleneck = bneck
	}
	p.loss = 1 - keep
	for _, node := range nodes {
		p.terms = append(p.terms, jitterTerm(node.ProcDelayMs, nodeJitterFrac))
	}
	var hi float64
	for _, t := range p.terms {
		hi += max(t.base*t.lo, t.base*(t.lo+t.span))
	}
	p.maxRTT = 2 * hi
	return p
}

// BaseOneWayMs returns the deterministic one-way delay of the path:
// link delays + peering penalties + per-node processing.
func (p *Path) BaseOneWayMs() float64 {
	var d float64
	for _, t := range p.terms {
		d += t.base
	}
	return d
}

// BottleneckMbps returns the minimum link bandwidth along the path.
func (p *Path) BottleneckMbps() float64 { return p.bottleneck }

// LossProb returns the end-to-end packet loss probability.
func (p *Path) LossProb() float64 { return p.loss }

// Hops returns the number of forwarding hops (nodes after the source).
func (p *Path) Hops() int { return len(p.Nodes) - 1 }

// routeShards is the number of route-cache shards. Shard count trades
// memory for contention: with the campaign worker pool bounded by
// GOMAXPROCS, 64 shards keep the probability of two workers hitting the
// same shard lock low while staying cheap to invalidate during builds.
const routeShards = 64

// routeTable is the concurrent route cache: a sharded read-mostly map
// for the hit fast path plus a single-flight registry so a route missing
// from the cache is computed exactly once no matter how many goroutines
// ask for it simultaneously.
type routeTable struct {
	shards [routeShards]routeShard

	flightMu sync.Mutex
	flight   map[[2]NodeID]*routeFlight // guarded by flightMu

	// Cache effectiveness counters (see Network.RouteCacheStats). Plain
	// atomics so the hit fast path stays lock-free beyond its shard
	// read-lock.
	hits      atomic.Uint64
	misses    atomic.Uint64
	dijkstras atomic.Uint64
}

type routeShard struct {
	mu sync.RWMutex
	m  map[[2]NodeID]*Path // guarded by mu
	// via holds composed routes keyed by (src, via, dst); see RouteVia.
	// It is created on first store, so a shard that never composes
	// carries no second map.
	via map[[3]NodeID]*Path // guarded by mu
}

type routeFlight struct {
	done chan struct{}
	p    *Path
	err  error
}

func (t *routeTable) init() {
	for i := range t.shards {
		//lint:allow guardedfield build phase: the table is not shared until the Network is published
		t.shards[i].m = make(map[[2]NodeID]*Path)
	}
	//lint:allow guardedfield build phase: the table is not shared until the Network is published
	t.flight = make(map[[2]NodeID]*routeFlight)
}

// invalidate drops every cached route. Build phase only (callers hold
// the topology write lock; concurrent queries are excluded).
func (t *routeTable) invalidate() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.m = make(map[[2]NodeID]*Path)
		sh.via = nil
		sh.mu.Unlock()
	}
}

func shardOf(key [2]NodeID) uint64 {
	// Fibonacci-style mix of both endpoints so (src, dst) and (dst, src)
	// land on different shards and sequential IDs spread out.
	h := uint64(key[0])*0x9E3779B97F4A7C15 + uint64(key[1])*0xC2B2AE3D27D4EB4F
	return (h >> 32) % routeShards
}

func viaShardOf(key [3]NodeID) uint64 {
	h := uint64(key[0])*0x9E3779B97F4A7C15 + uint64(key[1])*0xC2B2AE3D27D4EB4F + uint64(key[2])*0x165667B19E3779F9
	return (h >> 32) % routeShards
}

// Route computes the shortest-delay path from src to dst. Ties are broken
// by preferring fewer hops, then lower node IDs, so routing is fully
// deterministic. Routes are cached: repeated queries return the same
// *Path pointer. Concurrent callers are safe; a cache hit takes only a
// shard read-lock, and concurrent misses for the same pair share one
// Dijkstra run (single-flight).
func (n *Network) Route(src, dst NodeID) (*Path, error) {
	key := [2]NodeID{src, dst}
	sh := &n.routes.shards[shardOf(key)]
	sh.mu.RLock()
	p, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		n.routes.hits.Add(1)
		return p, nil
	}
	n.routes.misses.Add(1)
	return n.routes.compute(key, sh, func() (*Path, error) {
		n.mu.RLock()
		defer n.mu.RUnlock()
		n.routes.dijkstras.Add(1)
		return n.dijkstra(src, dst)
	})
}

// RouteVia returns the path src → via → dst: the shortest route to via
// joined to the shortest route on from it. It is how a session's traffic
// is modelled — pinned private leg to the assigned PGW, routed public
// leg beyond it — since tunnelled traffic cannot pick its breakout. The
// composition is cached like a plain route: built once with ConcatPaths,
// returned as the same shared, immutable *Path on every later call,
// dropped with every other route when the topology changes, and counted
// in RouteCacheStats (a composed hit is one hit; a composed miss is one
// miss plus whatever its two legs' own lookups cost).
func (n *Network) RouteVia(src, via, dst NodeID) (*Path, error) {
	key := [3]NodeID{src, via, dst}
	sh := &n.routes.shards[viaShardOf(key)]
	sh.mu.RLock()
	p, ok := sh.via[key]
	sh.mu.RUnlock()
	if ok {
		n.routes.hits.Add(1)
		return p, nil
	}
	n.routes.misses.Add(1)
	first, err := n.Route(src, via)
	if err != nil {
		return nil, fmt.Errorf("netsim: route via %d, first leg: %w", via, err)
	}
	second, err := n.Route(via, dst)
	if err != nil {
		return nil, fmt.Errorf("netsim: route via %d, second leg: %w", via, err)
	}
	p, err = ConcatPaths(first, second)
	if err != nil {
		return nil, err
	}
	// Concurrent misses each compose the same legs; the first store wins
	// so every caller gets the one shared pointer.
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if won, ok := sh.via[key]; ok {
		return won, nil
	}
	if sh.via == nil {
		sh.via = make(map[[3]NodeID]*Path)
	}
	sh.via[key] = p
	return p, nil
}

// RouteCacheStats reports cumulative route-cache effectiveness: cache
// hits, misses, and how many Dijkstra runs the misses actually cost
// (single-flight collapses concurrent misses for one pair into one run,
// so dijkstraRuns <= misses). Composed routes (RouteVia) count too.
func (n *Network) RouteCacheStats() (hits, misses, dijkstraRuns uint64) {
	return n.routes.hits.Load(), n.routes.misses.Load(), n.routes.dijkstras.Load()
}

// compute runs fn for key exactly once across concurrent callers and
// caches a successful result in sh. Errors are not cached (they indicate
// bad endpoints or unreachable pairs, both rare and cheap to rediscover).
func (t *routeTable) compute(key [2]NodeID, sh *routeShard, fn func() (*Path, error)) (*Path, error) {
	t.flightMu.Lock()
	// Re-check the cache under flightMu: a concurrent flight may have
	// completed between our shard read and here.
	sh.mu.RLock()
	if p, ok := sh.m[key]; ok {
		sh.mu.RUnlock()
		t.flightMu.Unlock()
		return p, nil
	}
	sh.mu.RUnlock()
	if f, ok := t.flight[key]; ok {
		t.flightMu.Unlock()
		<-f.done
		return f.p, f.err
	}
	f := &routeFlight{done: make(chan struct{})}
	t.flight[key] = f
	t.flightMu.Unlock()

	f.p, f.err = fn()
	if f.err == nil {
		sh.mu.Lock()
		sh.m[key] = f.p
		sh.mu.Unlock()
	}
	close(f.done)

	t.flightMu.Lock()
	delete(t.flight, key)
	t.flightMu.Unlock()
	return f.p, f.err
}

// pqItem is one pending heap entry. Entries are immutable; when a node's
// tentative cost improves a fresh entry is pushed and the old one goes
// stale (lazy deletion).
type pqItem struct {
	cost float64
	hops int
	id   NodeID
}

// routePQ orders by (cost, hops, id) — exactly the pick order of the
// former O(V²) linear min-scan, so the heap implementation settles nodes
// in the same sequence and produces identical paths.
type routePQ []pqItem

func (q routePQ) Len() int { return len(q) }
func (q routePQ) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.id < b.id
}
func (q routePQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *routePQ) Push(x any)   { *q = append(*q, x.(pqItem)) }
func (q *routePQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

type routeState struct {
	cost float64
	hops int
	prev NodeID
	via  Link
	done bool
	seen bool
}

// dijkstra is the heap-based shortest-path core, O(E log V). Callers
// must hold at least a read lock on n.mu. Determinism: the (cost, hops,
// id) heap order is total, tentative states only ever strictly improve
// (so stale entries never compare equal to live ones), and all edge
// costs are strictly positive (DelayMs ≥ 0.05, ProcDelayMs ≥ 0.15), so
// settled nodes never reopen — the settle order matches the linear scan.
func (n *Network) dijkstra(src, dst NodeID) (*Path, error) {
	if int(src) >= len(n.nodes) || int(dst) >= len(n.nodes) || src < 0 || dst < 0 {
		return nil, fmt.Errorf("netsim: bad route endpoints %d -> %d", src, dst)
	}
	states := make([]routeState, len(n.nodes))
	states[src] = routeState{seen: true, prev: -1}
	pq := routePQ{{cost: 0, hops: 0, id: src}}
	heap.Init(&pq)
	for len(pq) > 0 {
		it := heap.Pop(&pq).(pqItem)
		s := &states[it.id]
		if s.done || it.cost != s.cost || it.hops != s.hops {
			continue // stale entry: this node was improved or settled already
		}
		best := it.id
		if best == dst {
			break
		}
		s.done = true
		// Valley-free constraint: a stub AS may not be crossed. If best
		// was entered from a different AS, it may only forward within its
		// own AS. The source node and ASN-0 nodes are unrestricted.
		uASN := n.nodes[best].ASN
		restricted := false
		if uASN != 0 && !n.transitAS[uASN] && best != src {
			prevASN := n.nodes[s.prev].ASN
			restricted = prevASN != uASN
		}
		for _, e := range n.adj[best] {
			if restricted && n.nodes[e.to].ASN != uASN {
				continue
			}
			c := s.cost + e.link.TotalDelayMs() + n.nodes[e.to].ProcDelayMs
			h := s.hops + 1
			t := &states[e.to]
			if !t.seen || c < t.cost || (c == t.cost && h < t.hops) {
				*t = routeState{cost: c, hops: h, prev: best, via: e.link, seen: true}
				heap.Push(&pq, pqItem{cost: c, hops: h, id: e.to})
			}
		}
	}
	if !states[dst].seen {
		return nil, fmt.Errorf("netsim: no route %s -> %s", n.nodes[src].Name, n.nodes[dst].Name)
	}
	// Reconstruct.
	var revNodes []Node
	var revLinks []Link
	at := dst
	for at != src {
		revNodes = append(revNodes, n.nodes[at])
		revLinks = append(revLinks, states[at].via)
		at = states[at].prev
	}
	revNodes = append(revNodes, n.nodes[src])
	nodes := make([]Node, 0, len(revNodes))
	links := make([]Link, 0, len(revLinks))
	for i := len(revNodes) - 1; i >= 0; i-- {
		nodes = append(nodes, revNodes[i])
	}
	for i := len(revLinks) - 1; i >= 0; i-- {
		links = append(links, revLinks[i])
	}
	return newPath(nodes, links), nil
}

// RTTms samples a round-trip time over the path: twice the one-way delay
// with per-link jitter and per-node processing delay applied, one draw
// per term. Safe for concurrent use given a per-goroutine Source.
func (n *Network) RTTms(p *Path, src *rng.Source) float64 {
	var d float64
	for _, t := range p.terms {
		d += t.base * (t.lo + t.span*src.Float64())
	}
	return 2 * d
}

// ConcatPaths joins consecutive path segments into one new path (the
// segments are copied, never aliased). Each segment must start at the
// node the previous segment ended at. RouteVia is its cached form.
func ConcatPaths(segments ...*Path) (*Path, error) {
	if len(segments) == 0 {
		return nil, fmt.Errorf("netsim: no segments")
	}
	var nodes []Node
	var links []Link
	for _, seg := range segments {
		if seg == nil || len(seg.Nodes) == 0 {
			return nil, fmt.Errorf("netsim: empty path segment")
		}
		if nodes == nil {
			nodes = append(nodes, seg.Nodes...)
			links = append(links, seg.Links...)
			continue
		}
		if nodes[len(nodes)-1].ID != seg.Nodes[0].ID {
			return nil, fmt.Errorf("netsim: discontiguous segments (%s -> %s)",
				nodes[len(nodes)-1].Name, seg.Nodes[0].Name)
		}
		nodes = append(nodes, seg.Nodes[1:]...)
		links = append(links, seg.Links...)
	}
	return newPath(nodes, links), nil
}
