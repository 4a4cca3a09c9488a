package fleet

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/rng"
)

// runSerialHTTP is RunInProcess's loop — one ME at a time, register,
// schedule, heartbeat, then lease 1 / execute / upload 1 until drained,
// same rng forks in the same order — with the one difference under test:
// the Endpoint keeps its default HTTP transport and talks v3 frames to an
// httptest.Server instead of calling the amigo.Server directly.
func runSerialHTTP(t *testing.T, plan Plan, seed int64, label string) *Campaign {
	t.Helper()
	w := testWorld(t)
	plan = plan.withDefaults()
	scheds := plan.Schedules()
	srv, hs := newControlServer(t)
	parent := rng.New(seed).Fork(label)
	for _, sc := range scheds {
		ep := amigo.NewEndpoint(sc.Name, hs.URL, w.Deployments[sc.ISO], parent.Fork(sc.Label))
		ep.Client = hs.Client()
		if err := ep.Register(); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ScheduleBatch(sc.Name, sc.Tasks); err != nil {
			t.Fatal(err)
		}
		if err := ep.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		for {
			n, err := ep.RunBatch(1)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
	}
	return &Campaign{Plan: plan, Schedules: scheds, Results: srv.Results()}
}

// TestSerialTransportDifferential keeps the equivalence proofs honest
// about what they prove now that their oracle is socket-free and
// codec-free: the same serial campaign run over loopback HTTP — v3
// frames, one task per round trip — must ingest the byte-identical
// dataset and render the identical Table 4 and RTT summary. A codec or
// handler that dropped, reordered or rewrote a field would pass every
// fleet-vs-fleet comparison and fail here.
func TestSerialTransportDifferential(t *testing.T) {
	wantDS, wantT4, wantRTT := serialOracle(t)
	gotDS, gotT4, gotRTT := artifacts(t, runSerialHTTP(t, chaosTestPlan(), testSeed, "chaos-eq"))
	if !bytes.Equal(gotDS, wantDS) {
		t.Error("serial campaign over HTTP ingests a different dataset than the direct-call oracle")
	}
	if gotT4 != wantT4 {
		t.Errorf("Table 4 differs:\nhttp:\n%s\ndirect:\n%s", gotT4, wantT4)
	}
	if gotRTT != wantRTT {
		t.Errorf("RTT summary differs:\nhttp:\n%s\ndirect:\n%s", gotRTT, wantRTT)
	}
}

// TestDriverRunReleasesOwnClient: a Driver without a Client builds a
// keep-alive one per Run; its idle connections — a read and a write
// goroutine each, plus the server's side — must go when Run returns
// instead of piling up run after run.
func TestDriverRunReleasesOwnClient(t *testing.T) {
	w := testWorld(t)
	_, hs := newControlServer(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 4, LeaseBatch: 4}
		if _, err := d.Run(w, chaosTestPlan()); err != nil {
			t.Fatal(err)
		}
	}
	// Closed connections take a moment to unwind on both ends.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before two Runs, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
