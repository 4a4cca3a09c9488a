package fleet

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"roamsim/internal/chaos"
	"roamsim/internal/vclock"
)

// runClockCampaign is runChaosCampaign with the campaign clock, pacing,
// and straggler watchdog under test control. It also returns the run's
// Stats.Elapsed — on a virtual clock, the campaign's final virtual
// timestamp, which the determinism test pins across worker counts.
func runClockCampaign(t *testing.T, inj *chaos.Injector, workers int,
	clk vclock.Clock, realize bool, straggler time.Duration) (dsBlob []byte, table4, rtt string, elapsed time.Duration) {
	t.Helper()
	if v, ok := clk.(*vclock.Virtual); ok {
		// A harness bug that blocks a registered waiter off-clock would
		// freeze the timeline; fail fast with the parked-waiter dump
		// instead of eating the whole go test timeout.
		stop := v.StallGuard(90*time.Second, nil)
		t.Cleanup(func() { stop() })
	}
	w := testWorld(t)
	plan := chaosTestPlan()
	var hs *httptest.Server
	if inj != nil {
		_, hs = newChaosControlServer(t, inj)
	} else {
		_, hs = newControlServer(t)
	}
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: workers,
		LeaseBatch: 4, StreamLabel: "chaos-eq", Heartbeat: true,
		Chaos: inj, Clock: clk, Realize: realize, Straggler: straggler}
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	dsBlob, table4, rtt = artifacts(t, camp)
	return dsBlob, table4, rtt, camp.Stats.Elapsed
}

// TestVirtualTimeEquivalence is the clock differential test — the PR's
// headline contract: a campaign driven on discrete-event virtual time
// must ingest the byte-identical dataset, Table 4, and RTT summary as
// the serial wall-clock oracle, across scheduling (serial / parallel),
// fault injection (clean / chaos.Heavy), and pacing (instant / realized
// netsim durations). Time is plumbing; it must never touch data.
func TestVirtualTimeEquivalence(t *testing.T) {
	wantDS, wantT4, wantRTT := serialOracle(t)
	if len(wantDS) == 0 || wantT4 == "" || wantRTT == "" {
		t.Fatal("empty real-clock baseline artifacts")
	}
	cases := []struct {
		chaos   bool
		workers int
		realize bool
	}{
		{false, 1, false},
		{false, 4, true}, // realized pacing, jumped over
		{true, 4, false},
		{false, 4, false},
		{true, 1, false},
		{true, 4, true}, // the full stack at once
	}
	for _, tc := range cases {
		name := fmt.Sprintf("virtual/v3/chaos=%v/workers=%d/realize=%v",
			tc.chaos, tc.workers, tc.realize)
		t.Run(name, func(t *testing.T) {
			var inj *chaos.Injector
			if tc.chaos {
				inj = chaos.NewInjector(7, chaos.Heavy())
			}
			clk := vclock.NewVirtual()
			gotDS, gotT4, gotRTT, elapsed := runClockCampaign(t, inj, tc.workers, clk, tc.realize, 30*time.Minute)
			if !bytes.Equal(gotDS, wantDS) {
				msg := "virtual-clock dataset differs from real-clock baseline"
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
			if tc.realize && elapsed <= 0 {
				t.Error("realized virtual campaign reports zero virtual makespan")
			}
			if reg, parked := clk.Waiters(); reg != 0 || parked != 0 {
				t.Errorf("waiter registry leaked: %d registered, %d parked after Run", reg, parked)
			}
		})
	}
}

// TestVirtualDeterminism pins the stronger property virtual time buys:
// with every ME a registered waiter, quiescence is a global barrier, so
// the same (seed, plan) produces not just the same dataset but the SAME
// final virtual timestamp — regardless of the Workers setting (ignored
// under virtual time by design) and of GOMAXPROCS.
func TestVirtualDeterminism(t *testing.T) {
	type run struct {
		workers    int
		gomaxprocs int
	}
	runs := []run{{1, 1}, {4, 2}, {16, runtime.GOMAXPROCS(0)}}
	var wantDS []byte
	var wantElapsed time.Duration
	for i, rc := range runs {
		name := fmt.Sprintf("workers=%d/gomaxprocs=%d", rc.workers, rc.gomaxprocs)
		t.Run(name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(rc.gomaxprocs)
			defer runtime.GOMAXPROCS(prev)
			inj := chaos.NewInjector(7, chaos.Heavy())
			clk := vclock.NewVirtual()
			ds, _, _, elapsed := runClockCampaign(t, inj, rc.workers, clk, true, 30*time.Minute)
			if elapsed <= 0 {
				t.Fatal("virtual campaign reports non-positive makespan")
			}
			if i == 0 {
				wantDS, wantElapsed = ds, elapsed
				return
			}
			if !bytes.Equal(ds, wantDS) {
				t.Error("dataset differs across worker/GOMAXPROCS settings")
			}
			if elapsed != wantElapsed {
				t.Errorf("final virtual timestamp differs: got %v, want %v", elapsed, wantElapsed)
			}
		})
	}
}
