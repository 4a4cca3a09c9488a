// Package signaling models the control-plane procedures that generate
// the signalling traffic of Figure 5b: attach, message by message (with
// S6a-style authentication and location update against the home HSS),
// and a day's counts of attaches, tracking-area updates and pagings.
//
// It supplies the *mechanism* behind the paper's observation that
// inferred Airalo users generate slightly more signalling than the
// v-MNO's native users: a roamer's authentication and location-update
// legs cross the IPX to the b-MNO's HSS (slower, retried more), and
// roamers re-select networks more often, re-running the whole
// procedure. The vmnocore package's calibrated volume distributions
// are consistent with the expectations this model produces (see tests).
package signaling

import (
	"fmt"

	"roamsim/internal/rng"
)

// MsgType is a control-plane message type (S1AP/NAS/S6a-flavored).
type MsgType string

// Control-plane messages of the attach and mobility procedures.
const (
	AttachRequest  MsgType = "Attach Request"                     // UE -> MME
	AuthInfoReq    MsgType = "Authentication-Information-Request" // MME -> HSS (S6a)
	AuthInfoAns    MsgType = "Authentication-Information-Answer"  // HSS -> MME
	AuthRequest    MsgType = "Authentication Request"             // MME -> UE
	AuthResponse   MsgType = "Authentication Response"
	UpdateLocReq   MsgType = "Update-Location-Request" // MME -> HSS (S6a)
	UpdateLocAns   MsgType = "Update-Location-Answer"
	AttachAccept   MsgType = "Attach Accept"
	AttachComplete MsgType = "Attach Complete"
)

// Event is one control-plane message with its completion time.
type Event struct {
	Seq  int
	Msg  MsgType
	From string
	To   string
	AtMs float64
}

// Trace is a completed procedure.
type Trace struct {
	Events []Event
	// DurationMs is the wall time of the procedure.
	DurationMs float64
}

// Messages returns the number of control messages exchanged.
func (t Trace) Messages() int { return len(t.Events) }

// Config parameterizes one subscriber's control-plane context.
type Config struct {
	// Roaming marks a subscriber whose HSS sits in another network,
	// reachable across the IPX.
	Roaming bool
	// LocalRTTms is the UE<->MME<->local-core round trip.
	LocalRTTms float64
	// IPXRTTms is the MME<->home-HSS round trip over the IPX (used only
	// when Roaming).
	IPXRTTms float64
	// HomeHSS names the HSS operator (for event labeling).
	HomeHSS string
}

func (c Config) hssRTT() float64 {
	if c.Roaming {
		return c.IPXRTTms
	}
	return c.LocalRTTms
}

func (c Config) validate() error {
	if c.LocalRTTms <= 0 {
		return fmt.Errorf("signaling: LocalRTTms must be positive")
	}
	if c.Roaming && c.IPXRTTms <= 0 {
		return fmt.Errorf("signaling: roaming requires IPXRTTms")
	}
	return nil
}

// Attach runs the full initial-attach procedure and returns its trace.
// For roamers the two S6a exchanges (authentication vectors, location
// update) cross the IPX, dominating the attach time — the control-plane
// sibling of the paper's data-plane tunnel finding.
func Attach(c Config, src *rng.Source) (Trace, error) {
	if err := c.validate(); err != nil {
		return Trace{}, err
	}
	hss := c.HomeHSS
	if hss == "" {
		hss = "HSS"
	}
	var tr Trace
	clock := 0.0
	add := func(msg MsgType, from, to string, rtt float64) {
		clock += src.Jitter(rtt/2, 0.2)
		tr.Events = append(tr.Events, Event{
			Seq: len(tr.Events) + 1, Msg: msg, From: from, To: to, AtMs: clock,
		})
	}
	add(AttachRequest, "UE", "MME", c.LocalRTTms)
	add(AuthInfoReq, "MME", hss, c.hssRTT())
	add(AuthInfoAns, hss, "MME", c.hssRTT())
	add(AuthRequest, "MME", "UE", c.LocalRTTms)
	add(AuthResponse, "UE", "MME", c.LocalRTTms)
	add(UpdateLocReq, "MME", hss, c.hssRTT())
	add(UpdateLocAns, hss, "MME", c.hssRTT())
	add(AttachAccept, "MME", "UE", c.LocalRTTms)
	add(AttachComplete, "UE", "MME", c.LocalRTTms)
	tr.DurationMs = clock
	return tr, nil
}

// DayProfile captures how often a subscriber runs each procedure per
// day.
type DayProfile struct {
	Attaches float64 // full attaches (power cycles, network reselection)
	TAUs     float64 // periodic + mobility TAUs
	Pagings  float64 // network-initiated wakeups
}

// DefaultDayProfile returns typical daily procedure rates. Roamers
// re-select networks and lose registration more often, so they re-run
// the expensive attach procedure more frequently — the Figure 5b
// mechanism. Tourists (aggregator users) also move more than locals,
// adding mobility TAUs.
func DefaultDayProfile(roaming bool, touristy bool) DayProfile {
	p := DayProfile{Attaches: 2, TAUs: 22, Pagings: 40}
	if roaming {
		p.Attaches += 3 // reselection between visited networks
		p.TAUs += 6
	}
	if touristy {
		p.TAUs += 8 // constant movement across tracking areas
		p.Pagings += 5
	}
	return p
}

// ExpectedDailyMessages estimates the control messages per day a
// subscriber with the given profile produces (attach 9, TAU 2, paging
// 2 including the service request).
func ExpectedDailyMessages(p DayProfile) float64 {
	return p.Attaches*9 + p.TAUs*2 + p.Pagings*2
}
