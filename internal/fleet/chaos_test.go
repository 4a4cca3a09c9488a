package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/shard"
)

// newChaosControlServer is newControlServer with the injector's storm
// middleware wrapped around the full mux, the way cmd/roam-fleet -chaos
// wires it. Admin traffic carries no chaos header and passes through.
func newChaosControlServer(t testing.TB, inj *chaos.Injector) (*amigo.Server, *httptest.Server) {
	t.Helper()
	srv := amigo.NewServer(nil)
	hs := httptest.NewServer(inj.Middleware(shard.Mount(srv.Handler(), srv.AdminHandler())))
	t.Cleanup(hs.Close)
	return srv, hs
}

func chaosTestPlan() Plan {
	return Plan{
		Countries: []string{"PAK", "GEO"}, MEsPerCountry: 2,
		Tasks: []amigo.Task{
			{Kind: "speedtest"}, {Kind: "mtr", Target: "Google"}, {Kind: "dns"},
		},
		Configs: []string{"sim", "esim"}, Reps: 2,
	}
}

// artifacts ingests a chaosTestPlan campaign and returns what the
// differential tests compare: the dataset as JSON, Table 4, and the RTT
// summary.
func artifacts(t *testing.T, camp *Campaign) (dsBlob []byte, table4, rtt string) {
	t.Helper()
	plan := chaosTestPlan()
	ds, err := Ingest(testWorld(t).Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return blob, Table4(ds, plan).String(), RTTSummary(ds, plan).String()
}

// serialOracle runs chaosTestPlan the way the paper's campaign ran —
// RunInProcess: one ME at a time, one task per lease, on direct calls
// into a private server with no socket or codec in between — under the
// stream label and heartbeat setting the run* helpers use. It is the
// baseline the fleet differential tests compare every batched, sharded,
// faulted or virtual-time run against.
func serialOracle(t *testing.T) (dsBlob []byte, table4, rtt string) {
	t.Helper()
	camp, err := RunInProcess(testWorld(t), chaosTestPlan(), testSeed, "chaos-eq", true)
	if err != nil {
		t.Fatal(err)
	}
	return artifacts(t, camp)
}

// runChaosCampaign runs the plan under the given injector (nil = clean
// run) and returns the ingested dataset plus its rendered artifacts.
func runChaosCampaign(t *testing.T, inj *chaos.Injector, workers int) (dsBlob []byte, table4, rtt string) {
	t.Helper()
	w := testWorld(t)
	plan := chaosTestPlan()
	var hs *httptest.Server
	if inj != nil {
		_, hs = newChaosControlServer(t, inj)
	} else {
		_, hs = newControlServer(t)
	}
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: workers,
		LeaseBatch: 4, StreamLabel: "chaos-eq", Heartbeat: true, Chaos: inj}
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	return artifacts(t, camp)
}

// TestFleetChaosEquivalence is the headline differential test: a
// campaign under heavy fault injection — resets, truncation, duplicate
// deliveries, latency spikes, 503/429 storms, mid-campaign ME crashes —
// must ingest the byte-identical dataset, Table 4, and RTT summary that
// the clean run produces. Faults cost retries, never data.
func TestFleetChaosEquivalence(t *testing.T) {
	wantDS, wantT4, wantRTT := runChaosCampaign(t, nil, 4)
	if len(wantDS) == 0 || wantT4 == "" || wantRTT == "" {
		t.Fatal("empty baseline artifacts")
	}
	for _, chaosSeed := range []int64{7, 1002} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("chaosSeed=%d/workers=%d", chaosSeed, workers)
			t.Run(name, func(t *testing.T) {
				inj := chaos.NewInjector(chaosSeed, chaos.Heavy())
				gotDS, gotT4, gotRTT := runChaosCampaign(t, inj, workers)
				if !bytes.Equal(gotDS, wantDS) {
					t.Errorf("chaos dataset differs from clean run\nfault trace:\n%s", inj.TraceString())
				}
				if gotT4 != wantT4 {
					t.Errorf("Table 4 differs:\nchaos:\n%s\nclean:\n%s", gotT4, wantT4)
				}
				if gotRTT != wantRTT {
					t.Errorf("RTT summary differs:\nchaos:\n%s\nclean:\n%s", gotRTT, wantRTT)
				}
				if len(inj.Events()) == 0 {
					t.Error("chaos run injected zero faults; the test proved nothing")
				}
			})
		}
	}
}

// TestChaosDeterminism pins the replay contract: for a fixed chaos
// seed the fault schedule (canonical event trace) and the ingested
// dataset are identical run over run AND across worker counts, because
// every injection decision is keyed per (ME, incarnation, op, attempt)
// rather than on global interleaving.
func TestChaosDeterminism(t *testing.T) {
	const chaosSeed = 99
	type run struct {
		trace string
		ds    []byte
	}
	var runs []run
	for _, workers := range []int{4, 4, 1} {
		inj := chaos.NewInjector(chaosSeed, chaos.Heavy())
		ds, _, _ := runChaosCampaign(t, inj, workers)
		runs = append(runs, run{trace: inj.TraceString(), ds: ds})
	}
	if runs[0].trace == "" {
		t.Fatal("no faults injected; determinism test is vacuous")
	}
	if runs[0].trace != runs[1].trace {
		t.Errorf("same seed, same workers: fault traces differ:\n--- run 1\n%s\n--- run 2\n%s",
			runs[0].trace, runs[1].trace)
	}
	if runs[0].trace != runs[2].trace {
		t.Errorf("same seed, different workers: fault traces differ:\n--- workers=4\n%s\n--- workers=1\n%s",
			runs[0].trace, runs[2].trace)
	}
	for i := 1; i < len(runs); i++ {
		if !bytes.Equal(runs[0].ds, runs[i].ds) {
			t.Errorf("dataset differs between determinism runs 0 and %d", i)
		}
	}
}

// TestChaosStragglerWatchdog exercises the escape hatch: with a
// generous watchdog the campaign completes normally and the dataset
// still matches the clean run (a timeout that never fires changes
// nothing; one that does costs an incarnation, not data).
func TestChaosStragglerWatchdog(t *testing.T) {
	wantDS, _, _ := runChaosCampaign(t, nil, 2)
	w := testWorld(t)
	plan := chaosTestPlan()
	inj := chaos.NewInjector(7, chaos.Light())
	_, hs := newChaosControlServer(t, inj)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 2,
		LeaseBatch: 4, StreamLabel: "chaos-eq", Heartbeat: true,
		Chaos: inj, Straggler: 30e9} // 30s: never fires on loopback
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := json.Marshal(ds)
	if !bytes.Equal(blob, wantDS) {
		t.Error("watchdog-enabled chaos run dataset differs from clean run")
	}
}
