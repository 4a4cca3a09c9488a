package video

import (
	"testing"

	"roamsim/internal/rng"
)

func constTput(mbps float64) ThroughputFunc {
	return func() float64 { return mbps }
}

func TestPlayFastLinkReaches4K(t *testing.T) {
	src := rng.New(1)
	st, err := Play(Config{DurationSec: 300}, constTput(100), src)
	if err != nil {
		t.Fatal(err)
	}
	if st.DominantResolution != "2160p" {
		t.Errorf("dominant = %s, want 2160p at 100 Mbps", st.DominantResolution)
	}
	if st.Rebuffers != 0 {
		t.Errorf("fast link rebuffered %d times", st.Rebuffers)
	}
}

func TestPlayMidLinkSettles720pOr1080p(t *testing.T) {
	src := rng.New(2)
	// ~5 Mbps with safety 0.75 -> budget ~3.75: 720p (2.5 Mbps) fits,
	// 1080p (5 Mbps) only during buffer-rich boldness.
	st, err := Play(Config{DurationSec: 300}, constTput(5), src)
	if err != nil {
		t.Fatal(err)
	}
	if st.DominantResolution != "720p" && st.DominantResolution != "1080p" {
		t.Errorf("dominant = %s, want 720p/1080p at 5 Mbps", st.DominantResolution)
	}
	if st.Share("2160p") > 0.05 {
		t.Errorf("4K share %f too high for 5 Mbps", st.Share("2160p"))
	}
}

func TestPlaySlowLinkDegradesAndStalls(t *testing.T) {
	src := rng.New(3)
	st, err := Play(Config{DurationSec: 120}, constTput(0.3), src)
	if err != nil {
		t.Fatal(err)
	}
	if h := rungHeight(st.DominantResolution); h > 360 {
		t.Errorf("dominant = %s too high for 0.3 Mbps", st.DominantResolution)
	}
	// At 0.3 Mbps the ABR can sustain 144p (0.1 Mbps) stall-free; only a
	// link below the lowest rung must stall.
	st2, err := Play(Config{DurationSec: 120}, constTput(0.05), rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Rebuffers == 0 {
		t.Error("a 0.05 Mbps link (below the 144p rung) must rebuffer")
	}
	if st2.StalledSec <= 0 {
		t.Error("rebuffering must accumulate stall time")
	}
}

func TestPlayMaxHeightCap(t *testing.T) {
	src := rng.New(4)
	st, err := Play(Config{DurationSec: 200, MaxHeight: 720}, constTput(100), src)
	if err != nil {
		t.Fatal(err)
	}
	for name := range st.SecondsAt {
		if rungHeight(name) > 720 {
			t.Errorf("played %s above the 720p cap", name)
		}
	}
	if st.DominantResolution != "720p" {
		t.Errorf("dominant = %s, want 720p", st.DominantResolution)
	}
}

func TestPlayTotalTimeAccounted(t *testing.T) {
	src := rng.New(5)
	cfg := Config{DurationSec: 150}
	st, err := Play(cfg, constTput(8), src)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, sec := range st.SecondsAt {
		total += sec
	}
	if total < cfg.DurationSec*0.99 {
		t.Errorf("accounted %f of %f seconds", total, cfg.DurationSec)
	}
}

func TestPlayVariableThroughputAdapts(t *testing.T) {
	src := rng.New(6)
	calls := 0
	varying := func() float64 {
		calls++
		if calls%40 < 20 {
			return 20 // good half
		}
		return 1.5 // congested half
	}
	st, err := Play(Config{DurationSec: 400}, varying, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SecondsAt) < 2 {
		t.Errorf("ABR should visit multiple rungs under varying throughput, got %v", st.SecondsAt)
	}
}

func TestPlayErrors(t *testing.T) {
	if _, err := Play(Config{}, nil, rng.New(7)); err == nil {
		t.Error("nil throughput should error")
	}
	if _, err := Play(Config{MaxHeight: 10}, constTput(5), rng.New(8)); err == nil {
		t.Error("MaxHeight below lowest rung should error")
	}
}

func TestShare(t *testing.T) {
	st := Stats{SecondsAt: map[string]float64{"720p": 75, "1080p": 25}}
	if got := st.Share("720p"); got != 0.75 {
		t.Errorf("Share = %f", got)
	}
	if got := st.Share("480p"); got != 0 {
		t.Errorf("missing rung share = %f", got)
	}
	if got := (Stats{SecondsAt: map[string]float64{}}).Share("720p"); got != 0 {
		t.Errorf("empty stats share = %f", got)
	}
}

// TestShareSumsInLadderOrder: three rungs whose total depends on the
// order they are added in — 1e16 + 1 rounds back to 1e16, while 1 + 1
// first survives — so a map-order sum returns different shares on
// repeated calls. Share sums in ladder order, every time.
func TestShareSumsInLadderOrder(t *testing.T) {
	st := Stats{SecondsAt: map[string]float64{"144p": 1e16, "240p": 1, "360p": 1}}
	total := st.SecondsAt["144p"]
	total += st.SecondsAt["240p"]
	total += st.SecondsAt["360p"]
	want := 1 / total
	for i := 0; i < 1000; i++ {
		if got := st.Share("240p"); got != want {
			t.Fatalf("call %d: Share = %g, want %g (the ladder-order sum)", i, got, want)
		}
	}
}

func TestPickRung(t *testing.T) {
	if got := pickRung(YouTubeLadder[:], 3); YouTubeLadder[got].Name != "720p" {
		t.Errorf("3 Mbps budget -> %s", YouTubeLadder[got].Name)
	}
	if got := pickRung(YouTubeLadder[:], 0.01); YouTubeLadder[got].Name != "144p" {
		t.Errorf("tiny budget -> %s", YouTubeLadder[got].Name)
	}
	if got := pickRung(YouTubeLadder[:], 1000); YouTubeLadder[got].Name != "2160p" {
		t.Errorf("huge budget -> %s", YouTubeLadder[got].Name)
	}
}

func TestLadderMonotone(t *testing.T) {
	for i := 1; i < len(YouTubeLadder); i++ {
		if YouTubeLadder[i].Height <= YouTubeLadder[i-1].Height ||
			YouTubeLadder[i].BitrateKbps <= YouTubeLadder[i-1].BitrateKbps {
			t.Fatalf("ladder not monotone at %d", i)
		}
	}
}

func rungHeight(name string) int {
	for _, r := range YouTubeLadder {
		if r.Name == name {
			return r.Height
		}
	}
	return 0
}
