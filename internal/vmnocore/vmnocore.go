// Package vmnocore simulates the visited-MNO core telemetry the paper
// obtained from a cooperating UK operator (under NDA): per-subscriber
// daily data and signalling volumes for three hidden populations —
// the v-MNO's own native users, ordinary inbound roamers from Play
// Poland, and Airalo users riding Play IMSIs.
//
// The substitution preserves Figure 5's finding structure: Airalo users
// behave like natives in data volume (they are tourists using the eSIM
// as their primary connection), ordinary Play roamers look different
// (their traffic is split across several UK v-MNOs), and Airalo
// signalling runs slightly hotter than native (roaming re-registrations),
// which the paper flags as a cost to the v-MNO.
//
// The analysis pipeline on top (IMSI mining, partitioning) is the real
// methodology from internal/core, applied to this synthetic population.
package vmnocore

import (
	"fmt"

	"roamsim/internal/mno"
	"roamsim/internal/rng"
)

// Group is the hidden ground-truth population of a subscriber.
type Group string

// Populations of the Figure 5 analysis.
const (
	GroupNative     Group = "native"      // v-MNO's own users
	GroupPlayRoamer Group = "play-roamer" // ordinary inbound Play roamers
	GroupAiralo     Group = "airalo"      // Airalo users on Play IMSIs
)

// Subscriber is one line in the core's subscriber table.
type Subscriber struct {
	IMSI mno.IMSI
	IMEI string
	// TrueGroup is ground truth, available to evaluation code only —
	// the mining pipeline must not read it.
	TrueGroup Group
}

// Usage is one day of a subscriber's activity as the core sees it.
type Usage struct {
	DataMB        float64
	SignallingMsg float64
}

// Profile holds the generative parameters of one population.
type Profile struct {
	DataMedianMB float64
	DataSigma    float64
	SigMedianMsg float64
	SigSigma     float64
}

// DefaultProfiles reflect the qualitative relationships of Figure 5.
var DefaultProfiles = map[Group]Profile{
	GroupNative:     {DataMedianMB: 350, DataSigma: 0.9, SigMedianMsg: 180, SigSigma: 0.5},
	GroupAiralo:     {DataMedianMB: 340, DataSigma: 0.9, SigMedianMsg: 215, SigSigma: 0.5},
	GroupPlayRoamer: {DataMedianMB: 120, DataSigma: 1.2, SigMedianMsg: 260, SigSigma: 0.7},
}

// Simulator generates the subscriber population and its usage.
type Simulator struct {
	vMNO        *mno.Operator
	play        *mno.Operator
	airaloRange mno.IMSIRange
	profiles    map[Group]Profile
	src         *rng.Source
	nextIMEI    int
}

// New returns a simulator for the given v-MNO, the Play b-MNO, and the
// IMSI range Play leases to Airalo.
func New(vMNO, play *mno.Operator, airaloRange mno.IMSIRange, src *rng.Source) *Simulator {
	return &Simulator{
		vMNO: vMNO, play: play, airaloRange: airaloRange,
		profiles: DefaultProfiles, src: src,
	}
}

func (s *Simulator) newIMEI() string {
	s.nextIMEI++
	return fmt.Sprintf("35%013d", s.nextIMEI)
}

// NewSubscriber mints a subscriber of the given group.
func (s *Simulator) NewSubscriber(g Group) Subscriber {
	sub := Subscriber{IMEI: s.newIMEI(), TrueGroup: g}
	switch g {
	case GroupNative:
		sub.IMSI = s.vMNO.NewIMSI(s.vMNO.OwnRange())
	case GroupPlayRoamer:
		// Ordinary Play customers: anywhere in Play's space EXCEPT the
		// leased Airalo block. Resample on collision.
		for {
			imsi := s.play.NewIMSI(s.play.OwnRange())
			if !s.airaloRange.Contains(imsi) {
				sub.IMSI = imsi
				break
			}
		}
	case GroupAiralo:
		sub.IMSI = s.play.NewIMSI(s.airaloRange)
	default:
		panic(fmt.Sprintf("vmnocore: unknown group %q", g))
	}
	return sub
}

// Population generates a mixed subscriber population.
func (s *Simulator) Population(native, playRoamers, airalo int) []Subscriber {
	out := make([]Subscriber, 0, native+playRoamers+airalo)
	for i := 0; i < native; i++ {
		out = append(out, s.NewSubscriber(GroupNative))
	}
	for i := 0; i < playRoamers; i++ {
		out = append(out, s.NewSubscriber(GroupPlayRoamer))
	}
	for i := 0; i < airalo; i++ {
		out = append(out, s.NewSubscriber(GroupAiralo))
	}
	rng.Shuffle(s.src, out)
	return out
}

// SeedDevices deploys n devices with Airalo eSIMs whose IMEIs the
// experimenter controls — the paper's 10 UK devices. The returned
// subscribers also appear in the core, so LookupIMSIByIMEI can find them.
func (s *Simulator) SeedDevices(n int) []Subscriber {
	out := make([]Subscriber, n)
	for i := range out {
		out[i] = s.NewSubscriber(GroupAiralo)
	}
	return out
}

// LookupIMSIByIMEI is the core query the paper ran: "verify from the
// v-MNO core the IMSIs associated with IMEI of our deployed devices".
func LookupIMSIByIMEI(population []Subscriber, imei string) (mno.IMSI, bool) {
	for _, sub := range population {
		if sub.IMEI == imei {
			return sub.IMSI, true
		}
	}
	return "", false
}

// DailyUsage draws one day of activity for a subscriber.
func (s *Simulator) DailyUsage(sub Subscriber) Usage {
	p, ok := s.profiles[sub.TrueGroup]
	if !ok {
		panic(fmt.Sprintf("vmnocore: no profile for %q", sub.TrueGroup))
	}
	return Usage{
		DataMB:        s.src.LogNormalMeanMedian(p.DataMedianMB, p.DataSigma),
		SignallingMsg: s.src.LogNormalMeanMedian(p.SigMedianMsg, p.SigSigma),
	}
}

// MonthObservation is the per-subscriber aggregate for the analysis
// month (April 2024 in the paper).
type MonthObservation struct {
	Sub           Subscriber
	DataMB        float64
	SignallingMsg float64
}

// ObserveMonth aggregates days of usage for every subscriber.
func (s *Simulator) ObserveMonth(population []Subscriber, days int) []MonthObservation {
	out := make([]MonthObservation, len(population))
	for i, sub := range population {
		var data, sig float64
		for d := 0; d < days; d++ {
			u := s.DailyUsage(sub)
			data += u.DataMB
			sig += u.SignallingMsg
		}
		out[i] = MonthObservation{Sub: sub, DataMB: data, SignallingMsg: sig}
	}
	return out
}
