package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
)

// batchRun is what one realized virtual campaign leaves behind for the
// batch differential to compare.
type batchRun struct {
	ds         []byte
	table4     string
	rtt        string
	elapsed    time.Duration
	clock      vclock.Stats
	exec       map[string]obs.HistSnapshot // amigo_endpoint_task_exec_ms per kind
	exposition string
}

// runBatchCampaign runs chaosTestPlan on a fresh virtual clock with
// realized durations, metrics attached, and the given LeaseBatch.
func runBatchCampaign(t *testing.T, inj *chaos.Injector, leaseBatch int) batchRun {
	t.Helper()
	clk := vclock.NewVirtual()
	stop := clk.StallGuard(90*time.Second, nil)
	t.Cleanup(func() { stop() })
	w := testWorld(t)
	reg := obs.NewRegistry()
	hs := newObsControlServer(t, nil, inj)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, LeaseBatch: leaseBatch,
		StreamLabel: "chaos-eq", Heartbeat: true, Chaos: inj, Clock: clk, Realize: true, Obs: reg}
	camp, err := d.Run(w, chaosTestPlan())
	if err != nil {
		t.Fatal(err)
	}
	r := batchRun{elapsed: camp.Stats.Elapsed, clock: clk.Stats(), exec: map[string]obs.HistSnapshot{}}
	r.ds, r.table4, r.rtt = artifacts(t, camp)
	for _, task := range chaosTestPlan().Tasks {
		r.exec[task.Kind] = reg.Histogram("amigo_endpoint_task_exec_ms", obs.L("kind", task.Kind)).Snapshot()
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	r.exposition = b.String()
	return r
}

// TestBatchRealizeDifferential: how many tasks an ME leases at a time
// decides how often it waits, never what it measures or how long the
// campaign takes. With one realized wait per leased batch, LeaseBatch 1,
// 4 and 32 ingest the serial oracle's dataset, clean and under heavy
// chaos; on the clean run they also agree on the virtual makespan and on
// the per-kind execution-time distributions, and an ME parks exactly once
// per batch. (Under chaos the makespan legitimately depends on LeaseBatch:
// the fault schedule is keyed on each operation's attempt number, and a
// smaller batch issues more leases and uploads to fault.)
func TestBatchRealizeDifferential(t *testing.T) {
	wantDS, wantT4, wantRTT := serialOracle(t)
	plan := chaosTestPlan()
	for _, faults := range []bool{false, true} {
		var first batchRun
		for i, batch := range []int{1, 4, 32} {
			var inj *chaos.Injector
			if faults {
				inj = chaos.NewInjector(7, chaos.Heavy())
			}
			name := fmt.Sprintf("chaos=%v/lease=%d", faults, batch)
			r := runBatchCampaign(t, inj, batch)
			if !bytes.Equal(r.ds, wantDS) {
				t.Errorf("%s: dataset differs from the serial oracle", name)
			}
			if r.table4 != wantT4 {
				t.Errorf("%s: Table 4 differs:\ngot:\n%s\nwant:\n%s", name, r.table4, wantT4)
			}
			if r.rtt != wantRTT {
				t.Errorf("%s: RTT summary differs:\ngot:\n%s\nwant:\n%s", name, r.rtt, wantRTT)
			}
			for _, line := range []string{
				fmt.Sprintf("fleet_vclock_advances_total %d\n", r.clock.Advances),
				fmt.Sprintf("fleet_vclock_parks_total %d\n", r.clock.Parks),
			} {
				if !strings.Contains(r.exposition, line) {
					t.Errorf("%s: exposition lacks %q", name, line)
				}
			}
			if faults {
				if len(inj.Events()) == 0 {
					t.Errorf("%s: chaos run injected zero faults; the test proved nothing", name)
				}
				continue
			}
			// A clean ME parks for nothing but its batches' network time.
			batches := (plan.TasksPerME() + batch - 1) / batch
			if want := uint64(plan.MECount() * batches); r.clock.Parks != want {
				t.Errorf("%s: %d parks, want %d (one per leased batch)", name, r.clock.Parks, want)
			}
			if i == 0 {
				first = r
				continue
			}
			if r.elapsed != first.elapsed {
				t.Errorf("%s: virtual makespan %v, LeaseBatch 1 took %v", name, r.elapsed, first.elapsed)
			}
			for kind, got := range r.exec {
				want := first.exec[kind]
				// The observations are the same multiset; only the order the
				// histogram's shards added them up in differs, so the sums
				// agree to rounding.
				if got.Count != want.Count || got.Buckets != want.Buckets ||
					math.Abs(got.Sum-want.Sum) > 1e-9*want.Sum {
					t.Errorf("%s: %s execution times: count %d sum %v ms, LeaseBatch 1 observed count %d sum %v ms",
						name, kind, got.Count, got.Sum, want.Count, want.Sum)
				}
			}
		}
	}
}

// TestStragglerCancelsRealizedWait: a watchdog deadline that lands
// inside a batch's realized wait ends the incarnation there — at exactly
// Straggler of virtual time, with the batch not uploaded (not even
// attempted) — and the next incarnation replays the schedule into the
// oracle's dataset. Driver.Straggler is per incarnation and a replay
// spends the same network time, so a campaign could never outlive a
// deadline this short; the test drives the two incarnations itself and
// lifts the deadline for the second.
func TestStragglerCancelsRealizedWait(t *testing.T) {
	wantDS, _, _ := serialOracle(t)
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
	gotDS, _, _ := artifacts(t, &Campaign{Plan: plan, Schedules: scheds, Results: srv.Results()})
	if !bytes.Equal(gotDS, wantDS) {
		t.Error("dataset after the watchdog kills differs from the serial oracle")
	}
}
