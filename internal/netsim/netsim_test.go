package netsim

import (
	"math"
	"testing"

	"roamsim/internal/geo"
	"roamsim/internal/ipaddr"
	"roamsim/internal/rng"
)

// lineTopology builds a simple UE - SGW - PGW - server chain.
func lineTopology(t *testing.T) (*Network, []NodeID) {
	t.Helper()
	n := New()
	ue := n.AddNode(Node{Name: "ue", Kind: KindUE, Loc: geo.MustCity("Dubai").Loc,
		Addr: ipaddr.MustParse("10.0.0.2")})
	sgw := n.AddNode(Node{Name: "sgw", Kind: KindSGW, Loc: geo.MustCity("Dubai").Loc,
		Addr: ipaddr.MustParse("10.0.0.1")})
	pgw := n.AddNode(Node{Name: "pgw", Kind: KindPGW, Loc: geo.MustCity("Singapore").Loc,
		Addr: ipaddr.MustParse("202.166.126.4")})
	srv := n.AddNode(Node{Name: "google", Kind: KindServer, Loc: geo.MustCity("Singapore").Loc,
		Addr: ipaddr.MustParse("8.8.8.8")})
	n.Connect(ue, sgw, Link{DelayMs: 15, BandwidthMbps: 100}) // radio leg
	n.Connect(sgw, pgw, Link{BandwidthMbps: 1000})            // geo-derived ~ Dubai-Singapore
	n.Connect(pgw, srv, Link{DelayMs: 1, BandwidthMbps: 10000})
	return n, []NodeID{ue, sgw, pgw, srv}
}

func TestRouteLine(t *testing.T) {
	n, ids := lineTopology(t)
	p, err := n.Route(ids[0], ids[3])
	if err != nil {
		t.Fatal(err)
	}
	if p.Hops() != 3 {
		t.Errorf("hops = %d, want 3", p.Hops())
	}
	if p.Nodes[0].Name != "ue" || p.Nodes[3].Name != "google" {
		t.Errorf("endpoints wrong: %s..%s", p.Nodes[0].Name, p.Nodes[3].Name)
	}
	// Dubai-Singapore geo-derived delay should dominate: one-way > 40 ms.
	if ow := p.BaseOneWayMs(); ow < 40 || ow > 120 {
		t.Errorf("one-way delay = %f ms", ow)
	}
	if b := p.BottleneckMbps(); b != 100 {
		t.Errorf("bottleneck = %f, want 100 (radio leg)", b)
	}
}

func TestRoutePrefersLowDelay(t *testing.T) {
	n := New()
	a := n.AddNode(Node{Name: "a", Loc: geo.Point{Lat: 0, Lon: 0}})
	b := n.AddNode(Node{Name: "b", Loc: geo.Point{Lat: 0, Lon: 1}})
	slow := n.AddNode(Node{Name: "slow", Loc: geo.Point{Lat: 0, Lon: 0.5}})
	fast := n.AddNode(Node{Name: "fast", Loc: geo.Point{Lat: 0, Lon: 0.5}})
	n.Connect(a, slow, Link{DelayMs: 50})
	n.Connect(slow, b, Link{DelayMs: 50})
	n.Connect(a, fast, Link{DelayMs: 5})
	n.Connect(fast, b, Link{DelayMs: 5})
	p, err := n.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[1].Name != "fast" {
		t.Errorf("routed via %s, want fast", p.Nodes[1].Name)
	}
}

func TestRoutePeeringPenaltyChangesPath(t *testing.T) {
	// Identical delays, but one transit edge carries a peering penalty:
	// this is the mechanism behind the UAE-beats-Pakistan finding.
	n := New()
	a := n.AddNode(Node{Name: "a"})
	b := n.AddNode(Node{Name: "b"})
	v1 := n.AddNode(Node{Name: "via1"})
	v2 := n.AddNode(Node{Name: "via2"})
	n.Connect(a, v1, Link{DelayMs: 10, PeeringPenaltyMs: 30})
	n.Connect(v1, b, Link{DelayMs: 10})
	n.Connect(a, v2, Link{DelayMs: 10})
	n.Connect(v2, b, Link{DelayMs: 10})
	p, err := n.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes[1].Name != "via2" {
		t.Errorf("routed via %s, want via2 (penalty-free)", p.Nodes[1].Name)
	}
}

func TestRouteNoPath(t *testing.T) {
	n := New()
	a := n.AddNode(Node{Name: "a"})
	b := n.AddNode(Node{Name: "b"})
	if _, err := n.Route(a, b); err == nil {
		t.Error("expected no-route error")
	}
}

func TestRouteDeterministic(t *testing.T) {
	n, ids := lineTopology(t)
	p1, _ := n.Route(ids[0], ids[3])
	p2, _ := n.Route(ids[0], ids[3])
	if p1 != p2 {
		t.Error("route cache should return identical path pointer")
	}
}

func TestRTTStability(t *testing.T) {
	n, ids := lineTopology(t)
	p, _ := n.Route(ids[0], ids[3])
	base := p.BaseOneWayMs()
	s := rng.New(1)
	for i := 0; i < 200; i++ {
		rtt := n.RTTms(p, s)
		if rtt < 2*base*0.8 || rtt > 2*base*1.25 {
			t.Fatalf("RTT %f wildly off base %f", rtt, 2*base)
		}
	}
}

func TestTracerouteStructure(t *testing.T) {
	n, ids := lineTopology(t)
	p, _ := n.Route(ids[0], ids[3])
	tr := n.Traceroute(p, rng.New(2))
	if len(tr.Hops) != 3 {
		t.Fatalf("got %d hops, want 3", len(tr.Hops))
	}
	if !tr.DestReached {
		t.Error("destination should respond")
	}
	// RTTs must be (weakly) increasing in expectation; check the
	// cumulative structure: last hop RTT > first hop RTT.
	if tr.Hops[2].BestRTTms <= tr.Hops[0].BestRTTms {
		t.Errorf("hop RTTs not increasing: %v vs %v", tr.Hops[0].BestRTTms, tr.Hops[2].BestRTTms)
	}
	// Private/public split: hop 1 private (sgw), hop 2 public (pgw).
	if !tr.Hops[0].Addr.IsPrivate() {
		t.Error("sgw hop should be private")
	}
	if tr.Hops[1].Addr.IsPrivate() {
		t.Error("pgw hop should be public")
	}
}

func TestTracerouteSilentNode(t *testing.T) {
	n := New()
	ue := n.AddNode(Node{Name: "ue", Kind: KindUE})
	mute := n.AddNode(Node{Name: "cgnat", Kind: KindCGNAT, ICMPReplyProb: -1})
	srv := n.AddNode(Node{Name: "srv", Kind: KindServer})
	n.Connect(ue, mute, Link{DelayMs: 1})
	n.Connect(mute, srv, Link{DelayMs: 1})
	p, _ := n.Route(ue, srv)
	tr := n.Traceroute(p, rng.New(3))
	if tr.Hops[0].Responded {
		t.Error("silent node must not respond")
	}
	if !tr.Hops[1].Responded {
		t.Error("server should respond")
	}
}

func TestTCPThroughputModel(t *testing.T) {
	// Short RTT, clean path: capped by bottleneck.
	if got := TCPThroughputMbps(5, 0, 100); got != 100 {
		t.Errorf("clean short path = %f, want bottleneck 100", got)
	}
	// Long RTT with loss: Mathis-bound well below bottleneck.
	long := TCPThroughputMbps(300, 0.01, 1000)
	short := TCPThroughputMbps(30, 0.01, 1000)
	if long >= short {
		t.Errorf("throughput must fall with RTT: %f vs %f", long, short)
	}
	lossy := TCPThroughputMbps(30, 0.05, 1000)
	if lossy >= short {
		t.Errorf("throughput must fall with loss: %f vs %f", lossy, short)
	}
	if TCPThroughputMbps(0, 0.5, 42) != 42 {
		t.Error("zero RTT returns bottleneck")
	}
}

func TestDownloadTimeMonotoneInSize(t *testing.T) {
	n, ids := lineTopology(t)
	p, _ := n.Route(ids[0], ids[3])
	small := n.DownloadTimeMs(p, 30_000, TransferOptions{Handshakes: 2}, rng.New(4))
	large := n.DownloadTimeMs(p, 3_000_000, TransferOptions{Handshakes: 2}, rng.New(4))
	if small >= large {
		t.Errorf("30 KB (%f ms) should download faster than 3 MB (%f ms)", small, large)
	}
	if small <= 0 || math.IsInf(large, 1) {
		t.Errorf("degenerate times: %f, %f", small, large)
	}
}

func TestDownloadTimePolicyCap(t *testing.T) {
	n, ids := lineTopology(t)
	p, _ := n.Route(ids[0], ids[3])
	free := n.DownloadTimeMs(p, 1_000_000, TransferOptions{Handshakes: 1}, rng.New(5))
	capped := n.DownloadTimeMs(p, 1_000_000, TransferOptions{Handshakes: 1, PolicyCapMbps: 1}, rng.New(5))
	if capped <= free {
		t.Errorf("1 Mbps cap (%f ms) should be slower than uncapped (%f ms)", capped, free)
	}
}

func TestSpeedtestRespectsCaps(t *testing.T) {
	n, ids := lineTopology(t)
	p, _ := n.Route(ids[0], ids[3])
	s := rng.New(6)
	for i := 0; i < 100; i++ {
		res := n.Speedtest(p, 20, 10, s)
		if res.DownloadMbps > 20*1.2 {
			t.Fatalf("download %f exceeds cap", res.DownloadMbps)
		}
		if res.UploadMbps > 10*1.25 {
			t.Fatalf("upload %f exceeds cap", res.UploadMbps)
		}
		if res.LatencyMs <= 0 {
			t.Fatal("latency must be positive")
		}
	}
}

func TestSpeedtestLongPathDegradesThroughput(t *testing.T) {
	// Same caps, lossy long path vs clean short path.
	n := New()
	ue := n.AddNode(Node{Name: "ue", Loc: geo.MustCity("Islamabad").Loc})
	near := n.AddNode(Node{Name: "near", Kind: KindServer, Loc: geo.MustCity("Islamabad").Loc})
	far := n.AddNode(Node{Name: "far", Kind: KindServer, Loc: geo.MustCity("Ashburn").Loc})
	n.Connect(ue, near, Link{DelayMs: 5, BandwidthMbps: 1000})
	n.Connect(ue, far, Link{BandwidthMbps: 1000, LossProb: 0.02})
	pNear, _ := n.Route(ue, near)
	pFar, _ := n.Route(ue, far)
	s := rng.New(7)
	var sumNear, sumFar float64
	for i := 0; i < 50; i++ {
		sumNear += n.Speedtest(pNear, 500, 100, s).DownloadMbps
		sumFar += n.Speedtest(pFar, 500, 100, s).DownloadMbps
	}
	if sumFar >= sumNear {
		t.Errorf("long lossy path should be slower: near=%f far=%f", sumNear/50, sumFar/50)
	}
}

func TestConnectDefaultsAndPanics(t *testing.T) {
	n := New()
	a := n.AddNode(Node{Name: "a", Loc: geo.MustCity("Paris").Loc})
	b := n.AddNode(Node{Name: "b", Loc: geo.MustCity("Amsterdam").Loc})
	n.Connect(a, b, Link{})
	p, err := n.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Paris-Amsterdam ≈ 430 km -> ~4 ms one way with route factor.
	if d := p.Links[0].DelayMs; d < 2 || d > 8 {
		t.Errorf("geo-derived delay = %f ms", d)
	}
	if p.Links[0].BandwidthMbps != 10000 {
		t.Errorf("default bandwidth = %f", p.Links[0].BandwidthMbps)
	}
	defer func() {
		if recover() == nil {
			t.Error("self-link should panic")
		}
	}()
	n.Connect(a, a, Link{})
}

func TestPathLossProb(t *testing.T) {
	p := newPath(nil, []Link{{LossProb: 0.1}, {LossProb: 0.1}})
	want := 1 - 0.9*0.9
	if got := p.LossProb(); math.Abs(got-want) > 1e-9 {
		t.Errorf("loss = %f, want %f", got, want)
	}
}

func TestValleyFreeRouting(t *testing.T) {
	// Two PGW-provider CG-NATs both peer with a content SP's border
	// router. Traffic from one CG-NAT to the other must NOT shortcut
	// through the stub SP, even when that path is shorter.
	n := New()
	cgA := n.AddNode(Node{Name: "cgnat-a", Kind: KindCGNAT, ASN: 54825})
	cgB := n.AddNode(Node{Name: "cgnat-b", Kind: KindCGNAT, ASN: 16276})
	spPeer := n.AddNode(Node{Name: "google-peer", Kind: KindRouter, ASN: 15169})
	spSrv := n.AddNode(Node{Name: "google-edge", Kind: KindServer, ASN: 15169})
	transit := n.AddNode(Node{Name: "transit", Kind: KindRouter, ASN: 38193})
	n.SetTransitAS(38193)
	n.Connect(cgA, spPeer, Link{DelayMs: 1})
	n.Connect(cgB, spPeer, Link{DelayMs: 1})
	n.Connect(spPeer, spSrv, Link{DelayMs: 0.2})
	// Legitimate (longer) route between the providers via a transit AS.
	n.Connect(cgA, transit, Link{DelayMs: 20})
	n.Connect(cgB, transit, Link{DelayMs: 20})

	// Reaching the SP through its own peering is fine.
	p, err := n.Route(cgA, spSrv)
	if err != nil || p.Hops() != 2 {
		t.Fatalf("route to SP: %v hops=%v", err, p)
	}
	// Crossing the SP between providers is forbidden: must use transit.
	p, err = n.Route(cgA, cgB)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range p.Nodes {
		if node.ASN == 15169 {
			t.Fatalf("path valley-routed through the stub SP: %v", p.Nodes)
		}
	}
	if p.Nodes[1].Name != "transit" {
		t.Errorf("expected transit path, got via %s", p.Nodes[1].Name)
	}
}

func TestTransitASAllowsCrossing(t *testing.T) {
	n := New()
	a := n.AddNode(Node{Name: "a", ASN: 100})
	mid := n.AddNode(Node{Name: "mid", Kind: KindRouter, ASN: 200})
	b := n.AddNode(Node{Name: "b", ASN: 300})
	n.Connect(a, mid, Link{DelayMs: 1})
	n.Connect(mid, b, Link{DelayMs: 1})
	// 200 is a stub: no path.
	if _, err := n.Route(a, b); err == nil {
		t.Fatal("stub AS must not be crossable")
	}
	n.SetTransitAS(200)
	if _, err := n.Route(a, b); err != nil {
		t.Fatalf("transit AS should be crossable: %v", err)
	}
}

func TestConcatPaths(t *testing.T) {
	n, ids := lineTopology(t)
	p1, _ := n.Route(ids[0], ids[2])
	p2, _ := n.Route(ids[2], ids[3])
	joined, err := ConcatPaths(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := n.Route(ids[0], ids[3])
	if joined.Hops() != full.Hops() {
		t.Errorf("joined hops = %d, direct = %d", joined.Hops(), full.Hops())
	}
	if math.Abs(joined.BaseOneWayMs()-full.BaseOneWayMs()) > 1e-9 {
		t.Errorf("delays differ: %f vs %f", joined.BaseOneWayMs(), full.BaseOneWayMs())
	}
	// Discontiguous segments must fail.
	if _, err := ConcatPaths(p2, p1); err == nil {
		t.Error("discontiguous concat should fail")
	}
	if _, err := ConcatPaths(); err == nil {
		t.Error("empty concat should fail")
	}
	if _, err := ConcatPaths(nil); err == nil {
		t.Error("nil segment should fail")
	}
}
