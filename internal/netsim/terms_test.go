package netsim

import (
	"fmt"
	"math"
	"testing"

	"roamsim/internal/rng"
)

// The oracle for a Path's terms: the walks over its Node and Link structs
// that RTTms, Speedtest and DownloadTimeMs made before paths carried
// terms, kept here and nowhere else.

func walkRTTms(p *Path, src *rng.Source) float64 {
	var d float64
	for i := range p.Links {
		l := &p.Links[i]
		d += src.Jitter(l.TotalDelayMs(), l.JitterFrac)
	}
	for i := range p.Nodes {
		d += src.Jitter(p.Nodes[i].ProcDelayMs, 0.3)
	}
	return 2 * d
}

func walkBaseOneWayMs(p *Path) float64 {
	var d float64
	for _, l := range p.Links {
		d += l.TotalDelayMs()
	}
	for _, node := range p.Nodes {
		d += node.ProcDelayMs
	}
	return d
}

func walkBottleneckMbps(p *Path) float64 {
	min := math.Inf(1)
	for _, l := range p.Links {
		if l.BandwidthMbps < min {
			min = l.BandwidthMbps
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

func walkLossProb(p *Path) float64 {
	keep := 1.0
	for _, l := range p.Links {
		keep *= 1 - l.LossProb
	}
	return 1 - keep
}

func walkSpeedtest(p *Path, downCapMbps, upCapMbps float64, src *rng.Source) SpeedtestResult {
	rtt := walkRTTms(p, src)
	bneck := walkBottleneckMbps(p)
	down := bneck
	if downCapMbps > 0 && downCapMbps < down {
		down = downCapMbps
	}
	up := bneck
	if upCapMbps > 0 && upCapMbps < up {
		up = upCapMbps
	}
	single := TCPThroughputMbps(rtt, walkLossProb(p), bneck)
	const flows = 16
	if agg := single * flows; agg < down {
		down = agg
	}
	if agg := single * flows * 0.6; agg < up {
		up = agg
	}
	return SpeedtestResult{
		LatencyMs:    rtt,
		DownloadMbps: src.Jitter(down, 0.18),
		UploadMbps:   src.Jitter(up, 0.22),
	}
}

// lossyGraph is a connected random graph whose every link and node draws
// its own delay, penalty, bandwidth, loss and jitter, so the terms of its
// paths differ in every field.
func lossyGraph(src *rng.Source, n int) *Network {
	net := New()
	for i := 0; i < n; i++ {
		net.AddNode(Node{Name: fmt.Sprintf("n%d", i), ProcDelayMs: src.Uniform(0.05, 2)})
	}
	link := func() Link {
		return Link{
			DelayMs: src.Uniform(0.5, 90), PeeringPenaltyMs: src.Uniform(0, 30) * float64(src.Intn(2)),
			BandwidthMbps: src.Uniform(2, 3000), LossProb: src.Uniform(0, 0.04), JitterFrac: src.Uniform(0.01, 0.4),
		}
	}
	for i := 1; i < n; i++ {
		net.Connect(NodeID(i-1), NodeID(i), link())
	}
	for e := 0; e < 2*n; e++ {
		if a, b := src.Intn(n), src.Intn(n); a != b {
			net.Connect(NodeID(a), NodeID(b), link())
		}
	}
	net.Freeze()
	return net
}

// TestPathTermsMatchWalk holds every Path the package builds — routed,
// composed by RouteVia and joined by ConcatPaths — to the walks: its
// base delay, bottleneck and loss are theirs exactly, RTTms and Speedtest
// draw their values from the same stream, no RTT sample passes the
// path's maxRTT, and SpeedtestDownMbps reads Speedtest's rate and leaves
// the next draw where Speedtest does, on paths where the Mathis bound
// can bind and on paths where it cannot.
func TestPathTermsMatchWalk(t *testing.T) {
	src := rng.New(50)
	skipped, summed := 0, 0
	for trial := 0; trial < 12; trial++ {
		const n = 24
		net := lossyGraph(src.Fork(fmt.Sprintf("trial%d", trial)), n)
		var paths []*Path
		for a := 0; a < n; a += 5 {
			for b := 1; b < n; b += 4 {
				p, err := net.Route(NodeID(a), NodeID(b))
				if err != nil {
					t.Fatal(err)
				}
				via, err := net.RouteVia(NodeID(a), NodeID((a+b)%n), NodeID(b))
				if err != nil {
					t.Fatal(err)
				}
				paths = append(paths, p, via)
			}
		}
		for i, p := range paths {
			if got, want := p.BaseOneWayMs(), walkBaseOneWayMs(p); got != want {
				t.Fatalf("trial %d path %d: base one-way %v, walk gives %v", trial, i, got, want)
			}
			if p.BottleneckMbps() != walkBottleneckMbps(p) || p.LossProb() != walkLossProb(p) {
				t.Fatalf("trial %d path %d: bottleneck %v loss %v, walk gives %v and %v",
					trial, i, p.BottleneckMbps(), p.LossProb(), walkBottleneckMbps(p), walkLossProb(p))
			}
			seed := src.ForkSeed("draws")
			got, want, down := rng.New(seed), rng.New(seed), rng.New(seed)
			for k := 0; k < 40; k++ {
				caps := [][2]float64{{0, 0}, {5, 2}, {80, 30}, {1e4, 1e4}}[k%4]
				if g, w := net.RTTms(p, got), walkRTTms(p, want); g != w || g > p.maxRTT {
					t.Fatalf("trial %d path %d draw %d: RTTms %v, walk gives %v (maxRTT %v)", trial, i, k, g, w, p.maxRTT)
				}
				down.Skip(len(p.terms)) // where RTTms left got
				g, w := net.Speedtest(p, caps[0], caps[1], got), walkSpeedtest(p, caps[0], caps[1], want)
				if g != w {
					t.Fatalf("trial %d path %d draw %d: Speedtest %+v, walk gives %+v", trial, i, k, g, w)
				}
				if d := net.SpeedtestDownMbps(p, caps[0], caps[1], down); d != w.DownloadMbps {
					t.Fatalf("trial %d path %d draw %d: SpeedtestDownMbps %v, walk gives %v", trial, i, k, d, w.DownloadMbps)
				}
				if g, d := got.Float64(), down.Float64(); g != d || g != want.Float64() {
					t.Fatalf("trial %d path %d draw %d: next draw after SpeedtestDownMbps differs", trial, i, k)
				}
				downCap := p.bottleneck
				if caps[0] > 0 && caps[0] < downCap {
					downCap = caps[0]
				}
				if TCPThroughputMbps(p.maxRTT, p.loss, p.bottleneck)*speedtestFlows >= downCap {
					skipped++
				} else {
					summed++
				}
			}
		}
	}
	if skipped == 0 || summed == 0 {
		t.Fatalf("SpeedtestDownMbps skipped the RTT %d times and summed it %d times; the paths must take both", skipped, summed)
	}
}

// benchPath is a route of a lossy graph composed through a midpoint.
func benchPath(b *testing.B) (*Network, *Path) {
	net := lossyGraph(rng.New(1), 24)
	p, err := net.RouteVia(0, 11, 23)
	if err != nil {
		b.Fatal(err)
	}
	return net, p
}

var sinkMs float64

// BenchmarkRTTms is one RTT sample: a draw per term.
func BenchmarkRTTms(b *testing.B) {
	net, p := benchPath(b)
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMs += net.RTTms(p, src)
	}
}

// BenchmarkSpeedtest is one speedtest over the path, and its download
// rate alone where the RTT cannot bind (caps of 20/10 Mbps) and where it
// can (uncapped).
func BenchmarkSpeedtest(b *testing.B) {
	net, p := benchPath(b)
	src := rng.New(3)
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMs += net.Speedtest(p, 20, 10, src).DownloadMbps
		}
	})
	b.Run("down/capped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMs += net.SpeedtestDownMbps(p, 20, 10, src)
		}
	})
	b.Run("down/uncapped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkMs += net.SpeedtestDownMbps(p, 0, 0, src)
		}
	})
}
