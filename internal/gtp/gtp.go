// Package gtp models GPRS Tunneling Protocol (GTP-U) tunnels: the
// encapsulated data path between a visited network's SGW and the PGW
// where a roaming session breaks out. Tunnel length is the paper's main
// explanatory variable for roaming latency ("the private path ... is the
// primary source of inflated latency"), so tunnels track the underlying
// netsim path and expose its delay and geographic span.
package gtp

import (
	"fmt"
	"sync/atomic"

	"roamsim/internal/geo"
	"roamsim/internal/netsim"
)

// TEID is a tunnel endpoint identifier.
type TEID uint32

// Overhead constants for GTP-U encapsulation over IPv4/UDP.
const (
	// HeaderBytes is outer IPv4 (20) + UDP (8) + GTP-U (8).
	HeaderBytes = 36
	// DefaultMTU is the usual transport MTU.
	DefaultMTU = 1500
)

// EffectiveMTU returns the payload MTU inside a GTP-U tunnel.
func EffectiveMTU(transportMTU int) int {
	m := transportMTU - HeaderBytes
	if m < 0 {
		return 0
	}
	return m
}

// Tunnel is an established GTP-U tunnel.
type Tunnel struct {
	TEID TEID
	SGW  netsim.NodeID
	PGW  netsim.NodeID
	// Path is the routed path through the IPX/backbone segment.
	Path *netsim.Path
}

// OneWayDelayMs returns the tunnel's baseline one-way delay.
func (t *Tunnel) OneWayDelayMs() float64 { return t.Path.BaseOneWayMs() }

// SpanKm returns the great-circle distance between the tunnel endpoints,
// the quantity plotted as lines in Figures 3 and 4.
func (t *Tunnel) SpanKm() float64 {
	n := len(t.Path.Nodes)
	if n < 2 {
		return 0
	}
	return geo.DistanceKm(t.Path.Nodes[0].Loc, t.Path.Nodes[n-1].Loc)
}

// Manager creates tunnels over a network. It keeps no registry: a tunnel
// lives as long as the session holding it, and the manager only hands out
// TEIDs. It is safe for concurrent use.
type Manager struct {
	net  *netsim.Network
	last atomic.Uint32 // the last TEID handed out
}

// NewManager returns a Manager over the given network.
func NewManager(n *netsim.Network) *Manager {
	return &Manager{net: n}
}

// Create establishes a tunnel from sgw to pgw, routing through the
// network. It fails if no path exists or if either endpoint has the
// wrong node kind. TEIDs are unique per manager and start at 1.
func (m *Manager) Create(sgw, pgw netsim.NodeID) (*Tunnel, error) {
	if k := m.net.Node(sgw).Kind; k != netsim.KindSGW {
		return nil, fmt.Errorf("gtp: node %d is %s, not an SGW", sgw, k)
	}
	if k := m.net.Node(pgw).Kind; k != netsim.KindPGW {
		return nil, fmt.Errorf("gtp: node %d is %s, not a PGW", pgw, k)
	}
	path, err := m.net.Route(sgw, pgw)
	if err != nil {
		return nil, fmt.Errorf("gtp: %w", err)
	}
	return &Tunnel{TEID: TEID(m.last.Add(1)), SGW: sgw, PGW: pgw, Path: path}, nil
}
