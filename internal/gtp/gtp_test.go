package gtp

import (
	"sync"
	"testing"

	"roamsim/internal/geo"
	"roamsim/internal/netsim"
)

func testNet(t *testing.T) (*netsim.Network, netsim.NodeID, netsim.NodeID) {
	t.Helper()
	n := netsim.New()
	sgw := n.AddNode(netsim.Node{Name: "sgw-dxb", Kind: netsim.KindSGW, Loc: geo.MustCity("Dubai").Loc})
	relay := n.AddNode(netsim.Node{Name: "ipx-relay", Kind: netsim.KindIPXRelay, Loc: geo.MustCity("Mumbai").Loc})
	pgw := n.AddNode(netsim.Node{Name: "pgw-sin", Kind: netsim.KindPGW, Loc: geo.MustCity("Singapore").Loc})
	n.Connect(sgw, relay, netsim.Link{})
	n.Connect(relay, pgw, netsim.Link{})
	return n, sgw, pgw
}

func TestCreateTunnel(t *testing.T) {
	n, sgw, pgw := testNet(t)
	m := NewManager(n)
	tun, err := m.Create(sgw, pgw)
	if err != nil {
		t.Fatal(err)
	}
	if tun.TEID == 0 {
		t.Error("TEID must be nonzero")
	}
	// Dubai -> Singapore span ≈ 5840 km.
	if s := tun.SpanKm(); s < 5500 || s > 6200 {
		t.Errorf("span = %f km", s)
	}
	// One-way delay should reflect the span: ≥ 5840*1.9/200 ≈ 55 ms.
	if d := tun.OneWayDelayMs(); d < 50 || d > 90 {
		t.Errorf("one-way delay = %f ms", d)
	}
}

func TestCreateRejectsWrongKinds(t *testing.T) {
	n, sgw, pgw := testNet(t)
	ue := n.AddNode(netsim.Node{Name: "ue", Kind: netsim.KindUE, Loc: geo.MustCity("Dubai").Loc})
	n.Connect(ue, sgw, netsim.Link{})
	m := NewManager(n)
	if _, err := m.Create(ue, pgw); err == nil {
		t.Error("UE as SGW endpoint should fail")
	}
	if _, err := m.Create(sgw, ue); err == nil {
		t.Error("UE as PGW endpoint should fail")
	}
}

func TestCreateNoRoute(t *testing.T) {
	n := netsim.New()
	sgw := n.AddNode(netsim.Node{Name: "sgw", Kind: netsim.KindSGW})
	pgw := n.AddNode(netsim.Node{Name: "pgw", Kind: netsim.KindPGW})
	m := NewManager(n)
	if _, err := m.Create(sgw, pgw); err == nil {
		t.Error("disconnected endpoints should fail")
	}
}

func TestTEIDsUniqueUnderConcurrency(t *testing.T) {
	n, sgw, pgw := testNet(t)
	m := NewManager(n)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	teids := make(chan TEID, workers*per)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tun, err := m.Create(sgw, pgw)
				if err != nil {
					t.Error(err)
					return
				}
				teids <- tun.TEID
			}
		}()
	}
	wg.Wait()
	close(teids)
	seen := map[TEID]bool{}
	for id := range teids {
		if seen[id] {
			t.Fatalf("duplicate TEID %d", id)
		}
		seen[id] = true
	}
	if len(seen) != workers*per {
		t.Errorf("got %d TEIDs", len(seen))
	}
}

func TestEffectiveMTU(t *testing.T) {
	if got := EffectiveMTU(DefaultMTU); got != 1464 {
		t.Errorf("EffectiveMTU(1500) = %d, want 1464", got)
	}
	if got := EffectiveMTU(10); got != 0 {
		t.Errorf("tiny MTU should clamp to 0, got %d", got)
	}
}
