// Package netsim implements the network substrate for the reproduction:
// a geo-aware graph of nodes and links over which the measurement tools
// (traceroute, speedtest, CDN fetch, DNS probe) are evaluated.
//
// The model is deliberately at the level the paper measures:
//
//   - every link carries a one-way delay derived from great-circle
//     distance over fiber, plus an optional peering penalty capturing
//     interconnection-agreement quality (Section 4.3's takeaway is that
//     such penalties, not distance, often dominate);
//   - every link carries a bandwidth; path throughput is the bottleneck
//     further constrained by policy caps at the measurement layer;
//   - nodes answer (or don't answer) ICMP TTL-exceeded probes with a
//     configurable probability, reproducing the silent CG-NATs the paper
//     observes in Germany and Qatar;
//   - nodes expose either a private (RFC 1918 / CGN) or a public address,
//     which is exactly the signal the tomography demarcation step uses.
//
// Routing is shortest-delay (Dijkstra) with deterministic tie-breaking,
// computed on demand and cached; see routing.go.
//
// # Build phase vs. query phase
//
// A Network has two phases. During the build phase a single goroutine
// adds nodes and links (AddNode, Connect, SetTransitAS). Calling Freeze
// ends the build phase; from then on any topology mutation panics, and
// every query (Route, RTTms, Node, Traceroute, ...) is safe for
// unbounded concurrent use. Queries use read locks plus a sharded route
// cache, so concurrent readers do not serialize on a single mutex.
// There is no exception: nothing a query reads changes after Freeze.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/ipreg"
)

// NodeID identifies a node within one Network.
type NodeID int

// NodeKind labels the functional role of a node. Kinds matter to the
// measurement layer (e.g. a traceroute starts at a UE and the GTP segment
// ends at a PGW) but not to routing.
type NodeKind string

// Node kinds.
const (
	KindUE       NodeKind = "ue"       // user equipment (measurement device)
	KindBaseSta  NodeKind = "bs"       // base station / eNodeB
	KindSGW      NodeKind = "sgw"      // serving gateway (visited network)
	KindIPXRelay NodeKind = "ipx"      // IPX backbone relay
	KindPGW      NodeKind = "pgw"      // packet data network gateway
	KindCGNAT    NodeKind = "cgnat"    // carrier-grade NAT
	KindRouter   NodeKind = "router"   // generic public-internet router
	KindServer   NodeKind = "server"   // service endpoint (SP edge, CDN POP, Ookla)
	KindResolver NodeKind = "resolver" // DNS resolver
)

// Node is one element of the simulated topology.
type Node struct {
	ID   NodeID
	Name string
	Kind NodeKind
	Loc  geo.Point
	// Addr is the address the node sources ICMP replies from. Private
	// addresses mark the pre-breakout segment.
	Addr ipaddr.Addr
	// ASN is the AS that operates the node (0 when anonymous/private).
	ASN ipreg.ASN
	// ICMPReplyProb is the probability the node answers a TTL-exceeded
	// probe. 0 models CG-NATs or routers that drop ICMP.
	ICMPReplyProb float64
	// ProcDelayMs is per-packet processing delay added at this hop.
	ProcDelayMs float64
}

// Link is an undirected edge between two nodes.
type Link struct {
	A, B NodeID
	// DelayMs is the one-way baseline delay (propagation + serialization).
	DelayMs float64
	// PeeringPenaltyMs is additional one-way delay modeling the quality of
	// the interconnection agreement on this edge.
	PeeringPenaltyMs float64
	// BandwidthMbps is the link capacity.
	BandwidthMbps float64
	// LossProb is the per-packet loss probability on this edge.
	LossProb float64
	// JitterFrac scales the random perturbation applied to this link's
	// delay in each measurement (default 0.08 if zero).
	JitterFrac float64
}

// TotalDelayMs returns the effective one-way delay used for routing.
func (l Link) TotalDelayMs() float64 { return l.DelayMs + l.PeeringPenaltyMs }

// Network is a two-phase topology: mutable while building, immutable
// (and safe for unbounded concurrent queries) after Freeze. See the
// package doc for the phase contract.
type Network struct {
	mu     sync.RWMutex
	frozen atomic.Bool
	nodes  []Node
	adj    [][]edgeRef // indexed by NodeID

	// transitAS marks ASes allowed to carry traffic between two other
	// networks. All other (stub) ASes — content providers, PGW hosts —
	// may originate or sink traffic but not be crossed, the "valley-free"
	// constraint real BGP policy enforces.
	transitAS map[ipreg.ASN]bool

	routes routeTable
}

type edgeRef struct {
	to   NodeID
	link Link
}

// New returns an empty network in the build phase.
func New() *Network {
	n := &Network{transitAS: make(map[ipreg.ASN]bool)}
	n.routes.init()
	return n
}

// Freeze ends the build phase. After Freeze every topology mutation
// (AddNode, Connect, SetTransitAS) panics, and all queries are safe for
// concurrent use without external synchronization. Freeze is idempotent.
func (n *Network) Freeze() { n.frozen.Store(true) }

// Frozen reports whether the build phase has ended.
func (n *Network) Frozen() bool { return n.frozen.Load() }

func (n *Network) mutable(op string) {
	if n.frozen.Load() {
		panic("netsim: " + op + " after Freeze")
	}
}

// SetTransitAS marks an AS as transit-capable. Unlisted non-zero ASes
// are stubs; nodes with ASN 0 (private infrastructure) are unrestricted.
// Build phase only.
func (n *Network) SetTransitAS(asn ipreg.ASN) {
	n.mutable("SetTransitAS")
	n.mu.Lock()
	defer n.mu.Unlock()
	n.transitAS[asn] = true
	n.routes.invalidate()
}

// AddNode inserts a node and returns its ID. The ID field of the argument
// is ignored and assigned by the network. Nodes default to answering ICMP
// (probability 1) and a 0.15 ms processing delay if unset. Build phase only.
func (n *Network) AddNode(node Node) NodeID {
	n.mutable("AddNode")
	n.mu.Lock()
	defer n.mu.Unlock()
	node.ID = NodeID(len(n.nodes))
	if node.ICMPReplyProb == 0 {
		node.ICMPReplyProb = 1
	} else if node.ICMPReplyProb < 0 {
		node.ICMPReplyProb = 0 // explicit "never replies"
	}
	if node.ProcDelayMs == 0 {
		node.ProcDelayMs = 0.15
	}
	n.nodes = append(n.nodes, node)
	n.adj = append(n.adj, nil)
	return node.ID
}

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("netsim: unknown node %d", id))
	}
	return n.nodes[id]
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.nodes)
}

// Connect adds an undirected link. If link.DelayMs is zero it is derived
// from the great-circle distance between the endpoints (plus a small
// last-metre floor so co-located nodes still cost something). If
// BandwidthMbps is zero a 10 Gbps default is used. Build phase only.
func (n *Network) Connect(a, b NodeID, link Link) {
	n.mutable("Connect")
	n.mu.Lock()
	defer n.mu.Unlock()
	if a == b {
		panic("netsim: self-link")
	}
	link.A, link.B = a, b
	if link.DelayMs == 0 {
		link.DelayMs = geo.PropagationDelayMs(n.nodes[a].Loc, n.nodes[b].Loc)
		if link.DelayMs < 0.05 {
			link.DelayMs = 0.05
		}
	}
	if link.BandwidthMbps == 0 {
		link.BandwidthMbps = 10000
	}
	if link.JitterFrac == 0 {
		link.JitterFrac = 0.08
	}
	n.adj[a] = append(n.adj[a], edgeRef{to: b, link: link})
	n.adj[b] = append(n.adj[b], edgeRef{to: a, link: link})
	// Topology changed: routes computed so far may be stale.
	n.routes.invalidate()
}

// Degree returns the number of links attached to a node.
func (n *Network) Degree(id NodeID) int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if int(id) < 0 || int(id) >= len(n.adj) {
		return 0
	}
	return len(n.adj[id])
}
