package signaling

import (
	"testing"

	"roamsim/internal/rng"
	"roamsim/internal/vmnocore"
)

func TestAttachMessageSequence(t *testing.T) {
	src := rng.New(1)
	tr, err := Attach(Config{LocalRTTms: 20, HomeHSS: "LocalHSS"}, src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages() != 9 {
		t.Fatalf("attach messages = %d, want 9", tr.Messages())
	}
	want := []MsgType{
		AttachRequest, AuthInfoReq, AuthInfoAns, AuthRequest, AuthResponse,
		UpdateLocReq, UpdateLocAns, AttachAccept, AttachComplete,
	}
	for i, ev := range tr.Events {
		if ev.Msg != want[i] {
			t.Errorf("event %d = %s, want %s", i, ev.Msg, want[i])
		}
		if ev.Seq != i+1 {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if i > 0 && ev.AtMs <= tr.Events[i-1].AtMs {
			t.Error("event times must increase")
		}
	}
	if tr.DurationMs <= 0 {
		t.Error("duration must be positive")
	}
}

func TestRoamingAttachSlower(t *testing.T) {
	src := rng.New(2)
	var native, roaming float64
	const n = 100
	for i := 0; i < n; i++ {
		tn, err := Attach(Config{LocalRTTms: 20}, src)
		if err != nil {
			t.Fatal(err)
		}
		native += tn.DurationMs
		tro, err := Attach(Config{Roaming: true, LocalRTTms: 20, IPXRTTms: 300, HomeHSS: "Singtel-HSS"}, src)
		if err != nil {
			t.Fatal(err)
		}
		roaming += tro.DurationMs
	}
	// Four S6a legs at 150 ms (one way) each vs 10 ms: roaming attach
	// should take several times longer.
	if roaming < native*3 {
		t.Errorf("roaming attach %.0f ms should dwarf native %.0f ms", roaming/n, native/n)
	}
}

func TestAttachValidation(t *testing.T) {
	src := rng.New(3)
	if _, err := Attach(Config{}, src); err == nil {
		t.Error("zero local RTT should fail")
	}
	if _, err := Attach(Config{Roaming: true, LocalRTTms: 20}, src); err == nil {
		t.Error("roaming without IPX RTT should fail")
	}
}

func TestDailyMessageOrdering(t *testing.T) {
	native := ExpectedDailyMessages(DefaultDayProfile(false, false))
	airalo := ExpectedDailyMessages(DefaultDayProfile(true, true))
	roamerOnly := ExpectedDailyMessages(DefaultDayProfile(true, false))
	if !(airalo > native) {
		t.Errorf("aggregator roamer (%f) must out-signal native (%f) — Figure 5b", airalo, native)
	}
	if !(roamerOnly > native) {
		t.Errorf("plain roamer (%f) must out-signal native (%f)", roamerOnly, native)
	}
}

// TestConsistentWithVMNOCoreCalibration ties the mechanistic model to
// the distributional one: the ordering of expected daily messages must
// match the ordering of vmnocore's calibrated signalling medians.
func TestConsistentWithVMNOCoreCalibration(t *testing.T) {
	mech := map[vmnocore.Group]float64{
		vmnocore.GroupNative: ExpectedDailyMessages(DefaultDayProfile(false, false)),
		vmnocore.GroupAiralo: ExpectedDailyMessages(DefaultDayProfile(true, true)),
	}
	cal := map[vmnocore.Group]float64{
		vmnocore.GroupNative: vmnocore.DefaultProfiles[vmnocore.GroupNative].SigMedianMsg,
		vmnocore.GroupAiralo: vmnocore.DefaultProfiles[vmnocore.GroupAiralo].SigMedianMsg,
	}
	if (mech[vmnocore.GroupAiralo] > mech[vmnocore.GroupNative]) !=
		(cal[vmnocore.GroupAiralo] > cal[vmnocore.GroupNative]) {
		t.Error("mechanistic and calibrated signalling orderings disagree")
	}
	// And the magnitudes should be the same order: both say "hundreds
	// of messages per day" territory.
	for g, v := range mech {
		if v < cal[g]/4 || v > cal[g]*4 {
			t.Errorf("%s: mechanistic %f vs calibrated %f differ by >4x", g, v, cal[g])
		}
	}
}
