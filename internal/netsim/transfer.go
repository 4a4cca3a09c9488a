package netsim

import (
	"math"

	"roamsim/internal/ipaddr"
	"roamsim/internal/rng"
)

// HopRecord is one line of a traceroute: the TTL, whether the hop
// answered, the address it answered from, and the best observed RTT,
// mirroring mtr's per-hop output used throughout Section 4.3.
type HopRecord struct {
	TTL       int
	Responded bool
	Addr      ipaddr.Addr
	NodeName  string
	Kind      NodeKind
	BestRTTms float64
}

// TracerouteResult is the full output of one traceroute run.
type TracerouteResult struct {
	Hops []HopRecord
	// DestReached reports whether the final hop answered.
	DestReached bool
}

// Traceroute probes every hop along the path. Each hop is probed three
// times (mtr-style); the recorded RTT is the best of the three. Nodes
// with a low ICMPReplyProb may appear as '*' (Responded=false), exactly
// like the silent CG-NATs the paper reports for Germany and Qatar.
func (n *Network) Traceroute(p *Path, src *rng.Source) TracerouteResult {
	res := TracerouteResult{Hops: make([]HopRecord, 0, len(p.Nodes)-1)}
	var cum float64
	for i := 1; i < len(p.Nodes); i++ {
		node := p.Nodes[i]
		link := p.Links[i-1]
		cum += link.TotalDelayMs() + node.ProcDelayMs
		rec := HopRecord{TTL: i, Addr: node.Addr, NodeName: node.Name, Kind: node.Kind}
		if src.Bool(node.ICMPReplyProb) {
			rec.Responded = true
			best := math.Inf(1)
			for probe := 0; probe < 3; probe++ {
				rtt := 2 * src.Jitter(cum, link.JitterFrac)
				if rtt < best {
					best = rtt
				}
			}
			rec.BestRTTms = best
		}
		res.Hops = append(res.Hops, rec)
	}
	if len(res.Hops) > 0 {
		res.DestReached = res.Hops[len(res.Hops)-1].Responded
	}
	return res
}

// TCPThroughputMbps estimates steady-state TCP throughput over a path
// using the Mathis model, bounded by the bottleneck capacity:
//
//	rate ≤ min(bottleneck, MSS/RTT · C/√p)
//
// with C ≈ 1.22 and MSS 1460 bytes. A tiny residual loss floor keeps the
// model finite on loss-free simulated paths; in practice roaming paths
// have non-negligible loss configured.
func TCPThroughputMbps(rttMs, lossProb, bottleneckMbps float64) float64 {
	if rttMs <= 0 {
		return bottleneckMbps
	}
	const mssBits = 1460 * 8
	p := lossProb
	if p < 1e-5 {
		p = 1e-5
	}
	mathis := (mssBits / (rttMs / 1000)) * 1.22 / math.Sqrt(p) / 1e6
	if mathis < bottleneckMbps {
		return mathis
	}
	return bottleneckMbps
}

// TransferOptions configure a simulated object download.
type TransferOptions struct {
	// PolicyCapMbps is an additional rate cap (e.g. a v-MNO roamer
	// policy). Zero means uncapped.
	PolicyCapMbps float64
	// Handshakes is the number of RTTs spent before the first payload
	// byte (TCP connect = 1, +TLS = 2 more, +DNS is accounted separately).
	Handshakes int
}

// DownloadTimeMs estimates the time to fetch size bytes over the path:
// handshake RTTs, slow-start ramp, then steady-state transfer at the
// effective rate. It matches what curl's time_total would report for the
// CDN experiments.
func (n *Network) DownloadTimeMs(p *Path, sizeBytes int, opts TransferOptions, src *rng.Source) float64 {
	rtt := n.RTTms(p, src)
	rate := TCPThroughputMbps(rtt, p.loss, p.bottleneck)
	if opts.PolicyCapMbps > 0 && rate > opts.PolicyCapMbps {
		rate = opts.PolicyCapMbps
	}
	if rate <= 0 {
		return math.Inf(1)
	}
	handshake := float64(opts.Handshakes) * rtt

	// Slow start: cwnd doubles each RTT from 10 segments (IW10).
	const mss = 1460.0
	remaining := float64(sizeBytes)
	cwnd := 10 * mss
	rateBytesPerMs := rate * 1e6 / 8 / 1000
	var elapsed float64
	for remaining > 0 {
		perRTT := cwnd
		if perRTT > rateBytesPerMs*rtt {
			// cwnd has reached the path's bandwidth-delay product:
			// finish at line rate.
			elapsed += remaining / rateBytesPerMs
			remaining = 0
			break
		}
		if remaining <= perRTT {
			elapsed += rtt * remaining / perRTT
			remaining = 0
			break
		}
		remaining -= perRTT
		elapsed += rtt
		cwnd *= 2
	}
	return handshake + elapsed
}

// SpeedtestResult is what an Ookla-style bandwidth test observes.
type SpeedtestResult struct {
	LatencyMs    float64
	DownloadMbps float64
	UploadMbps   float64
}

// Speedtest simulates a multi-connection bandwidth test against a server
// at the end of the path. Multi-connection tests approach the effective
// cap rather than a single TCP flow's Mathis bound, so the result is the
// policy/bottleneck cap with measurement jitter, with an uplink that is
// a configured fraction of the downlink (radio schedulers are asymmetric).
func (n *Network) Speedtest(p *Path, downCapMbps, upCapMbps float64, src *rng.Source) SpeedtestResult {
	return n.speedtest(p, downCapMbps, upCapMbps, src, true)
}

// SpeedtestDownMbps is Speedtest's DownloadMbps, leaving src where
// Speedtest leaves it, for a caller that reads nothing else. When even
// the path's largest RTT keeps the flows' Mathis bound above the
// downlink cap, the RTT cannot change the rate, and its draws are
// skipped rather than summed.
func (n *Network) SpeedtestDownMbps(p *Path, downCapMbps, upCapMbps float64, src *rng.Source) float64 {
	return n.speedtest(p, downCapMbps, upCapMbps, src, false).DownloadMbps
}

// speedtestFlows is how many parallel connections a speedtest opens.
const speedtestFlows = 16

// speedtest is Speedtest; without latency it returns only DownloadMbps
// and skips the draws of any value it does not return.
func (n *Network) speedtest(p *Path, downCapMbps, upCapMbps float64, src *rng.Source, latency bool) SpeedtestResult {
	bneck := p.bottleneck
	down := bneck
	if downCapMbps > 0 && downCapMbps < down {
		down = downCapMbps
	}
	// Mathis falls as the RTT grows (and rounding keeps it monotone), so
	// a bound that holds at maxRTT holds at every sample.
	if !latency && TCPThroughputMbps(p.maxRTT, p.loss, bneck)*speedtestFlows >= down {
		src.Skip(len(p.terms))
		res := SpeedtestResult{DownloadMbps: src.Jitter(down, 0.18)}
		src.Skip(1) // the uplink's jitter
		return res
	}
	rtt := n.RTTms(p, src)
	up := bneck
	if upCapMbps > 0 && upCapMbps < up {
		up = upCapMbps
	}
	// Even parallel connections degrade on long-RTT lossy paths: apply a
	// soft penalty when the single-flow Mathis bound drops below the cap.
	single := TCPThroughputMbps(rtt, p.loss, bneck)
	if agg := single * speedtestFlows; agg < down {
		down = agg
	}
	if agg := single * speedtestFlows * 0.6; agg < up {
		up = agg
	}
	return SpeedtestResult{
		LatencyMs:    rtt,
		DownloadMbps: src.Jitter(down, 0.18),
		UploadMbps:   src.Jitter(up, 0.22),
	}
}
