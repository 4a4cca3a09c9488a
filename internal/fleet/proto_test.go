package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"roamsim/internal/chaos"
)

// TestFleetProtoEquivalence is the protocol differential test: the same
// seeded campaign must ingest the byte-identical dataset, Table 4, and
// RTT summary whether it runs serially over the v1 JSON poll protocol
// (the oracle) or through the fleet driver over v3 binary batch frames,
// serially or in parallel, on a clean network or under chaos.Heavy.
// The wire format is an encoding detail; it must never change data.
func TestFleetProtoEquivalence(t *testing.T) {
	wantDS, wantT4, wantRTT := serialOracle(t)
	if len(wantDS) == 0 || wantT4 == "" || wantRTT == "" {
		t.Fatal("empty baseline artifacts")
	}
	cases := []struct {
		chaos   bool
		workers int
	}{
		{false, 1},
		{false, 4},
		{true, 1},
		{true, 4},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("v3/chaos=%v/workers=%d", tc.chaos, tc.workers)
		t.Run(name, func(t *testing.T) {
			var inj *chaos.Injector
			if tc.chaos {
				inj = chaos.NewInjector(7, chaos.Heavy())
			}
			gotDS, gotT4, gotRTT := runChaosCampaign(t, inj, tc.workers)
			if !bytes.Equal(gotDS, wantDS) {
				msg := "dataset differs from the v1 serial oracle"
				if inj != nil {
					msg += "\nfault trace:\n" + inj.TraceString()
				}
				t.Error(msg)
			}
			if gotT4 != wantT4 {
				t.Errorf("Table 4 differs:\ngot:\n%s\nwant:\n%s", gotT4, wantT4)
			}
			if gotRTT != wantRTT {
				t.Errorf("RTT summary differs:\ngot:\n%s\nwant:\n%s", gotRTT, wantRTT)
			}
			if inj != nil && len(inj.Events()) == 0 {
				t.Error("chaos run injected zero faults; the test proved nothing")
			}
		})
	}
}

// TestDriverRejectsUnknownProto pins that a stale protocol selector
// fails loudly instead of silently running the one batch protocol.
func TestDriverRejectsUnknownProto(t *testing.T) {
	w := testWorld(t)
	_, hs := newControlServer(t)
	for _, proto := range []string{"v2", "v9"} {
		d := &Driver{BaseURL: hs.URL, Seed: testSeed, Proto: proto}
		if _, err := d.Run(w, chaosTestPlan()); err == nil {
			t.Errorf("Run accepted protocol %q", proto)
		}
	}
}
