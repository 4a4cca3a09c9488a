package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
)

// TestStragglerCancelsRealizedWait: a watchdog deadline that lands
// inside a batch's realized wait ends the incarnation there — at exactly
// Straggler of virtual time, with the batch not uploaded (not even
// attempted) — and the next incarnation replays the schedule into the
// oracle's dataset. Driver.Straggler is per incarnation and a replay
// spends the same network time, so a campaign could never outlive a
// deadline this short; the test drives the two incarnations itself and
// lifts the deadline for the second.
func TestStragglerCancelsRealizedWait(t *testing.T) {
	w := testWorld(t)
	plan := chaosTestPlan().withDefaults()
	scheds := plan.Schedules()
	srv, hs := newControlServer(t)
	clk := vclock.NewVirtual()
	reg := obs.NewRegistry()
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, LeaseBatch: 4, StreamLabel: "chaos-eq",
		Heartbeat: true, Clock: clk, Realize: true, Obs: reg}
	d.initObs()
	uploads := reg.Counter("amigo_endpoint_requests_total", obs.L("path", "/v3/results"))

	// This goroutine plays every ME in turn: the clock's one waiter.
	clk.Add(1)
	defer clk.Done()
	parent := rng.New(testSeed).Fork("chaos-eq")
	for _, sc := range scheds {
		seed := parent.ForkSeed(sc.Label)
		dep := w.Deployments[sc.ISO]
		tasks := append([]amigo.Task(nil), sc.Tasks...)
		scheduled := false
		stored, sent, t0 := len(srv.Results()), uploads.Value(), clk.Now()

		d.Straggler = time.Second // far less than four speedtests' transfers
		_, err := d.runIncarnation(hs.Client(), sc, dep, seed, 0, &scheduled, tasks)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: killed incarnation returned %v, want the watchdog's deadline error", sc.Name, err)
		}
		if got := clk.Now().Sub(t0); got != d.Straggler {
			t.Errorf("%s: killed incarnation ended after %v of virtual time, want exactly %v", sc.Name, got, d.Straggler)
		}
		if got := len(srv.Results()) - stored; got != 0 {
			t.Errorf("%s: killed incarnation uploaded %d results", sc.Name, got)
		}
		if got := uploads.Value() - sent; got != 0 {
			t.Errorf("%s: killed incarnation attempted %d uploads after its deadline", sc.Name, got)
		}

		d.Straggler = 0
		crashed, err := d.runIncarnation(hs.Client(), sc, dep, seed, 1, &scheduled, tasks)
		if err != nil || crashed {
			t.Fatalf("%s: restarted incarnation: crashed=%v err=%v", sc.Name, crashed, err)
		}
	}
	oracle(t).holdResults(t, "after the watchdog kills", srv.Results())
}
