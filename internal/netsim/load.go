package netsim

import "math"

// LoadModel returns the network's current utilization factor (≥ 0):
// 0 is an idle network, 1 a busy-hour one. The factor scales queueing
// delay on every sampled RTT and erodes available bandwidth, modeling
// the time-of-day confounder the paper's Discussion lists as absorbed
// into its measurement noise. A nil model means a constant lightly
// loaded network (the default used by all calibrated experiments).
type LoadModel func() float64

// SetLoadModel installs (or clears, with nil) the global load model.
// It affects RTT sampling and speedtests but NOT routing, which models
// the stable propagation floor. Unlike topology mutations it is allowed
// after Freeze — load is a measurement-time confounder, not topology —
// and it is safe while measurements run in other goroutines: each sample
// reads whichever model is installed when it is drawn.
func (n *Network) SetLoadModel(m LoadModel) {
	if m == nil {
		n.load.Store(nil)
		return
	}
	n.load.Store(&m)
}

// loadFactor samples the current load (0 when unset).
func (n *Network) loadFactor() float64 {
	m := n.load.Load()
	if m == nil {
		return 0
	}
	f := (*m)()
	if f < 0 {
		return 0
	}
	return f
}

// queueInflation converts a utilization factor into a delay multiplier
// using an M/M/1-flavored curve that stays finite: 1 + load²·0.6.
// At load 1 (busy hour) RTTs inflate by ~60%, consistent with busy-hour
// access-network measurements.
func queueInflation(load float64) float64 {
	return 1 + 0.6*load*load
}

// Diurnal returns a LoadModel that follows a sinusoidal daily cycle:
// lowest at peakHour+12, highest (=peak) at peakHour. The clock function
// supplies the current hour of day [0, 24); it is injected so simulated
// experiments control time explicitly (no wall-clock reads).
func Diurnal(peakHour, peak float64, clock func() float64) LoadModel {
	if peak < 0 {
		peak = 0
	}
	return func() float64 {
		h := math.Mod(clock(), 24)
		phase := (h - peakHour) / 24 * 2 * math.Pi
		// cos(0)=1 at the peak hour; map [-1,1] -> [0, peak].
		return peak * (math.Cos(phase) + 1) / 2
	}
}
