package netsim

import (
	"fmt"
	"testing"

	"roamsim/internal/ipreg"
	"roamsim/internal/rng"
)

// referenceRoute is the pre-heap O(V²) linear min-scan Dijkstra, kept
// verbatim as the oracle: the heap implementation must settle nodes in
// the same (cost, hops, id) order and reconstruct identical paths.
func referenceRoute(n *Network, src, dst NodeID) (*Path, error) {
	if int(src) >= len(n.nodes) || int(dst) >= len(n.nodes) || src < 0 || dst < 0 {
		return nil, fmt.Errorf("netsim: bad route endpoints %d -> %d", src, dst)
	}
	type state struct {
		cost float64
		hops int
		prev NodeID
		via  Link
		done bool
		seen bool
	}
	states := make([]state, len(n.nodes))
	states[src] = state{seen: true, prev: -1}
	for {
		// Pick the unfinished node with the smallest (cost, hops, id).
		best := NodeID(-1)
		for id := range states {
			s := &states[id]
			if !s.seen || s.done {
				continue
			}
			if best < 0 {
				best = NodeID(id)
				continue
			}
			b := &states[best]
			if s.cost < b.cost || (s.cost == b.cost && (s.hops < b.hops || (s.hops == b.hops && NodeID(id) < best))) {
				best = NodeID(id)
			}
		}
		if best < 0 {
			break
		}
		if best == dst {
			break
		}
		states[best].done = true
		uASN := n.nodes[best].ASN
		restricted := false
		if uASN != 0 && !n.transitAS[uASN] && best != src {
			prevASN := n.nodes[states[best].prev].ASN
			restricted = prevASN != uASN
		}
		for _, e := range n.adj[best] {
			if restricted && n.nodes[e.to].ASN != uASN {
				continue
			}
			c := states[best].cost + e.link.TotalDelayMs() + n.nodes[e.to].ProcDelayMs
			h := states[best].hops + 1
			s := &states[e.to]
			if !s.seen || c < s.cost || (c == s.cost && h < s.hops) {
				*s = state{cost: c, hops: h, prev: best, via: e.link, seen: true}
			}
		}
	}
	if !states[dst].seen {
		return nil, fmt.Errorf("netsim: no route %s -> %s", n.nodes[src].Name, n.nodes[dst].Name)
	}
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

// tieGraph builds a random graph with quantized delays (many exact cost
// ties) and a mix of stub and transit ASes, so both the tie-break and
// the valley-free restriction are exercised.
func tieGraph(src *rng.Source, n int) *Network {
	net := New()
	asns := []ipreg.ASN{0, 0, 100, 200, 300, 400}
	for i := 0; i < n; i++ {
		net.AddNode(Node{
			Name: fmt.Sprintf("n%d", i),
			ASN:  asns[src.Intn(len(asns))],
		})
	}
	net.SetTransitAS(100)
	net.SetTransitAS(200)
	// Spanning chain for connectivity, then random extra edges. Delays
	// drawn from a tiny integer set to force (cost, hops, id) ties.
	for i := 1; i < n; i++ {
		net.Connect(NodeID(i-1), NodeID(i), Link{DelayMs: float64(src.IntBetween(1, 3))})
	}
	extra := n * 3
	for e := 0; e < extra; e++ {
		a, b := src.Intn(n), src.Intn(n)
		if a != b {
			net.Connect(NodeID(a), NodeID(b), Link{DelayMs: float64(src.IntBetween(1, 3))})
		}
	}
	return net
}

func samePath(a, b *Path) bool {
	if len(a.Nodes) != len(b.Nodes) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i].ID != b.Nodes[i].ID {
			return false
		}
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

// TestHeapDijkstraMatchesReference verifies the container/heap
// implementation returns byte-identical paths to the former linear
// min-scan across random tie-heavy topologies, including unreachable
// pairs (valley-free dead ends must error identically).
func TestHeapDijkstraMatchesReference(t *testing.T) {
	src := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		net := tieGraph(src.Fork(fmt.Sprintf("trial%d", trial)), 40)
		for a := 0; a < 40; a += 3 {
			for b := 0; b < 40; b += 3 {
				if a == b {
					continue
				}
				want, wantErr := referenceRoute(net, NodeID(a), NodeID(b))
				got, gotErr := net.dijkstra(NodeID(a), NodeID(b))
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("trial %d route %d->%d: reference err=%v, heap err=%v",
						trial, a, b, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !samePath(want, got) {
					t.Fatalf("trial %d route %d->%d: paths diverge\nreference: %v\nheap:      %v",
						trial, a, b, pathIDs(want), pathIDs(got))
				}
			}
		}
	}
}

func pathIDs(p *Path) []NodeID {
	out := make([]NodeID, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = n.ID
	}
	return out
}
