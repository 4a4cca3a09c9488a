package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
)

// The proof table. A campaign's dataset is a pure function of its seed
// and plan: the wire codec, the clock, injected faults, the worker count,
// the lease size, sharding, shard and compaction kills and a live reshard
// are deployment details that must never change a byte of it. Each row
// is a Scenario of chaosTestPlan, run once through Scenario.Run — the
// path roam-fleet runs — and its ingested dataset, Table 4 and RTT
// summary are held to the serial oracle's. Rows of one replay group must
// also agree on the fault trace and, on the virtual clock, on the
// makespan. A row's checks assert what else its scenario promises.
//
// A row is named "<Test>[/<subtest>]", and the test functions below are
// the table's entry points: each runs the rows under its name, so `go
// test -run` selects a row as it selected the proof it replaces.

func TestFleetProtoEquivalence(t *testing.T)     { runProofs(t) }
func TestFleetChaosEquivalence(t *testing.T)     { runProofs(t) }
func TestChaosDeterminism(t *testing.T)          { runProofs(t) }
func TestChaosStragglerWatchdog(t *testing.T)    { runProofs(t) }
func TestShardedFleetEquivalence(t *testing.T)   { runProofs(t) }
func TestShardCrashRecovery(t *testing.T)        { runProofs(t) }
func TestShardCrashRecoveryVirtual(t *testing.T) { runProofs(t) }
func TestShardKillDeterminism(t *testing.T)      { runProofs(t) }
func TestReshardEquivalence(t *testing.T)        { runProofs(t) }
func TestCompactionCrashRecovery(t *testing.T)   { runProofs(t) }
func TestCompactionChaosSchedule(t *testing.T)   { runProofs(t) }
func TestVirtualTimeEquivalence(t *testing.T)    { runProofs(t) }
func TestVirtualDeterminism(t *testing.T)        { runProofs(t) }
func TestBatchRealizeDifferential(t *testing.T)  { runProofs(t) }
func TestFleetMetricsEquivalence(t *testing.T)   { runProofs(t) }
func TestFleetMetricsEndpoint(t *testing.T)      { runProofs(t) }

// proofRow is one whole-campaign proof: its scenario (plan, seed and
// stream label are the oracle's; LeaseBatch 0 means 4) and what only the
// test sets.
type proofRow struct {
	Scenario
	name   string
	procs  int    // GOMAXPROCS for the run (0: as it is)
	wal    bool   // Plane.WALDir is a fresh temporary directory
	replay string // replay group
	checks []proofCheck
}

// proofCheck asserts what a row's scenario promises beyond the dataset.
type proofCheck func(t *testing.T, r *proofRun)

// proofRun is what one row's campaign leaves for its checks.
type proofRun struct {
	*Outcome
	row   proofRow  // as run: its Plane.WALDir and LeaseBatch filled in
	first *proofRun // the replay group's first run, if this is not it
}

func proofRows() []proofRow {
	var rows []proofRow
	add := func(r proofRow) { rows = append(rows, r) }
	heavy := func(r proofRow, seed int64) proofRow {
		r.ChaosSeed, r.Chaos = seed, chaos.Heavy()
		return r
	}

	// The wire codec: v3 batch frames, serially or in parallel, on a clean
	// network or under chaos.Heavy. The codec rows draw their own chaos
	// seed, so they repeat no chaos row's campaign.
	for _, faults := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			r := proofRow{name: fmt.Sprintf("TestFleetProtoEquivalence/v3/chaos=%v/workers=%d", faults, workers), Scenario: Scenario{Workers: workers}}
			if faults {
				r = heavy(r, 31)
			}
			add(r)
		}
	}
	// Faults cost retries, never data: resets, truncation, duplicate
	// deliveries, latency spikes, 503/429 storms and ME crashes.
	for _, seed := range []int64{7, 1002} {
		for _, workers := range []int{1, 4} {
			add(heavy(proofRow{name: fmt.Sprintf("TestFleetChaosEquivalence/chaosSeed=%d/workers=%d", seed, workers), Scenario: Scenario{Workers: workers}}, seed))
		}
	}
	// Every injection is keyed per (ME, incarnation, op, attempt), not on
	// the interleaving, so a chaos seed draws one trace at any worker count.
	for i, workers := range []int{4, 4, 1} {
		add(heavy(proofRow{name: fmt.Sprintf("TestChaosDeterminism/run=%d/workers=%d", i, workers), Scenario: Scenario{Workers: workers}, replay: "chaos-99"}, 99))
	}
	// A watchdog that never fires changes nothing (one that does costs an
	// incarnation, not data).
	add(proofRow{name: "TestChaosStragglerWatchdog", Scenario: Scenario{Workers: 2, ChaosSeed: 7, Chaos: chaos.Light(), Straggler: 30 * time.Second}})

	// Placement is a pure function of the ME's name, and every shard's WAL
	// is written and rotated mid-campaign.
	for _, shards := range []int{1, 4} {
		add(proofRow{name: fmt.Sprintf("TestShardedFleetEquivalence/v3/shards=%d", shards), wal: true, checks: []proofCheck{walsRotated},
			Scenario: Scenario{Workers: 4, Plane: ShardedConfig{Shards: shards, SegmentBytes: 4096}}})
	}
	// A killed shard loses its registry, queues and idempotency state
	// wholesale; on either clock, no result is lost or duplicated, and the
	// surviving WALs alone rebuild the dataset. force-kill kills the shard
	// that owns me-PAK-0 right after its first upload; chaos-schedule
	// kills wherever the seeded stream says, under chaos.Heavy besides.
	shardKills := chaos.Heavy()
	shardKills.ShardKill, shardKills.MaxShardKills = 0.6, 2
	for _, c := range []struct {
		test    string
		virtual bool
	}{{"TestShardCrashRecovery", false}, {"TestShardCrashRecoveryVirtual", true}} {
		add(proofRow{name: c.test + "/force-kill", wal: true, checks: []proofCheck{shardsKilled, coldReplay},
			Scenario: Scenario{Virtual: c.virtual, Workers: 4, Metrics: true,
				Plane: ShardedConfig{Shards: 4, SegmentBytes: 4096, ForceKill: true, ForceKillShard: shard.NewRing(4).Shard("me-PAK-0")}}})
		add(proofRow{name: c.test + "/chaos-schedule", wal: true, checks: []proofCheck{shardsKilled, coldReplay},
			Scenario: Scenario{Virtual: c.virtual, Workers: 4, Metrics: true, ChaosSeed: 7, Chaos: shardKills,
				Plane: ShardedConfig{Shards: 4, SegmentBytes: 4096}}})
	}
	// The kill schedule keys on (shard, upload index). With one worker the
	// upload order is fixed, so the whole trace, kills included, replays;
	// with four a kill lands at a moment the interleaving picks, and only
	// the dataset holds. (At this seed the serial schedule crashes an ME
	// right after the upload that kills its shard; see runIncarnation's
	// empty-first-lease check.)
	for i, workers := range []int{1, 1, 4} {
		r := proofRow{name: fmt.Sprintf("TestShardKillDeterminism/run=%d/workers=%d", i, workers), wal: true, checks: []proofCheck{shardsKilled},
			Scenario: Scenario{Workers: workers, Metrics: true, ChaosSeed: 7, Chaos: shardKills, Plane: ShardedConfig{Shards: 4}}}
		if workers == 1 {
			r.replay = "shard-kill-serial"
		}
		add(r)
	}
	// A live 1→4→2 reshard, with and without WAL compaction riding along,
	// and a cold replay of the final epoch's WAL set. Every reshard drops
	// every ME's registration at once, so each ME may spend one restart
	// per reshard on top of what chaos spends.
	for _, compactAfter := range []int{0, 2} {
		add(proofRow{name: fmt.Sprintf("TestReshardEquivalence/compactAfter=%d", compactAfter), wal: true, checks: []proofCheck{resharded, coldReplay},
			Scenario: Scenario{Workers: 4, Metrics: true, RestartBudget: 8,
				Plane: ShardedConfig{Shards: 1, SegmentBytes: 2048, CompactAfter: compactAfter,
					Reshards: []ReshardStep{{AfterUploads: 4, Shards: 4}, {AfterUploads: 9, Shards: 2}}}}})
	}
	// A shard killed at compaction's nastiest crash point — the compacted
	// segment committed in place, its sources still on disk — which the
	// cold replay must arbitrate on reopen. One ME at a time: the kill
	// then fires at the same upload every run (the first ME's last, 12 of
	// the 48 results), and the three MEs that have not started lease from
	// the fresh server.
	add(proofRow{name: "TestCompactionCrashRecovery", wal: true, checks: []proofCheck{compactKilled, shardsKilled, coldReplay},
		Scenario: Scenario{Workers: 1, Metrics: true, RestartBudget: 8,
			Plane: ShardedConfig{Shards: 2, SegmentBytes: 1024, CompactAfter: 2,
				ForceCompactKill: true, ForceCompactKillShard: shard.NewRing(2).Shard("me-PAK-0")}}})
	// Compaction kills drawn by the seeded schedule, under chaos.Heavy.
	compactKills := chaos.Heavy()
	compactKills.CompactKill, compactKills.MaxCompactKills = 0.9, 2
	add(proofRow{name: "TestCompactionChaosSchedule", wal: true, checks: []proofCheck{compactKilled, coldReplay},
		Scenario: Scenario{Workers: 4, Metrics: true, RestartBudget: 8, ChaosSeed: 7, Chaos: compactKills,
			Plane: ShardedConfig{Shards: 2, SegmentBytes: 1024, CompactAfter: 2}}})

	// Time is plumbing: serial or parallel, clean or under chaos, with
	// netsim durations instant or realized and jumped over.
	for _, c := range []struct {
		faults  bool
		workers int
		realize bool
	}{{false, 1, false}, {false, 4, true}, {true, 4, false}, {false, 4, false}, {true, 1, false}, {true, 4, true}} {
		r := proofRow{name: fmt.Sprintf("TestVirtualTimeEquivalence/virtual/v3/chaos=%v/workers=%d/realize=%v", c.faults, c.workers, c.realize),
			Scenario: Scenario{Virtual: true, Workers: c.workers, Realize: c.realize, Straggler: 30 * time.Minute}}
		if c.faults {
			r = heavy(r, 7)
		}
		add(r)
	}
	// With every ME a registered waiter, quiescence is a global barrier:
	// one seed is one trace and one virtual makespan, whatever Workers
	// (ignored on the virtual clock) and GOMAXPROCS say.
	for _, p := range []struct{ workers, procs int }{{1, 1}, {4, 2}, {16, runtime.GOMAXPROCS(0)}} {
		add(heavy(proofRow{name: fmt.Sprintf("TestVirtualDeterminism/workers=%d/gomaxprocs=%d", p.workers, p.procs), procs: p.procs, replay: "virtual-7",
			Scenario: Scenario{Virtual: true, Workers: p.workers, Realize: true, Straggler: 30 * time.Minute}}, 7))
	}
	// How many tasks an ME leases at a time decides how often it waits
	// (one realized wait per leased batch), never what it measures. Clean,
	// it does not decide the makespan or the execution-time distributions
	// either; under chaos it may, because the fault schedule is keyed on
	// each operation's attempt number and a smaller batch makes more
	// operations to fault.
	for _, faults := range []bool{false, true} {
		for _, batch := range []int{1, 4, 32} {
			r := proofRow{name: fmt.Sprintf("TestBatchRealizeDifferential/chaos=%v/lease=%d", faults, batch), checks: []proofCheck{clockCounted},
				Scenario: Scenario{Virtual: true, Realize: true, Metrics: true, LeaseBatch: batch}}
			if faults {
				r = heavy(r, 7)
			} else {
				r.replay = "batch-clean"
				r.checks = append(r.checks, parkedPerBatch, execTimesAgree)
			}
			add(r)
		}
	}
	// Instrumentation rides every path, retries and restarts included,
	// and changes no byte.
	for _, workers := range []int{1, 4} {
		add(proofRow{name: fmt.Sprintf("TestFleetMetricsEquivalence/metrics-on/workers=%d", workers), Scenario: Scenario{Workers: workers, Metrics: true}})
	}
	add(heavy(proofRow{name: "TestFleetMetricsEquivalence/metrics-on/chaos", checks: []proofCheck{metricsServed}, Scenario: Scenario{Workers: 4, Metrics: true}}, 7))
	// The exposition is whole after a serial campaign too.
	add(heavy(proofRow{name: "TestFleetMetricsEndpoint", checks: []proofCheck{metricsServed}, Scenario: Scenario{Workers: 1, Metrics: true}}, 7))
	return rows
}

// runProofs runs the proof table's rows named under t.
func runProofs(t *testing.T) {
	firsts, rows := map[string]*proofRun{}, 0
	for _, row := range proofRows() {
		sub, ok := strings.CutPrefix(row.name, t.Name())
		if !ok || sub != "" && sub[0] != '/' {
			continue
		}
		rows++
		run := func(t *testing.T) {
			r := runProof(t, row)
			if first := firsts[row.replay]; first != nil {
				r.first = first
				if got, want := r.trace(), first.trace(); got != want {
					t.Errorf("fault trace differs from %s's:\n--- this row\n%s\n--- %s\n%s", first.row.name, got, first.row.name, want)
				}
				if r.Clock != nil && r.Campaign.Stats.Elapsed != first.Campaign.Stats.Elapsed {
					t.Errorf("virtual makespan %v, %s took %v", r.Campaign.Stats.Elapsed, first.row.name, first.Campaign.Stats.Elapsed)
				}
			} else if row.replay != "" {
				firsts[row.replay] = r
			}
			for _, check := range row.checks {
				check(t, r)
			}
		}
		if sub == "" {
			run(t)
		} else {
			t.Run(sub[1:], run)
		}
	}
	if rows == 0 {
		t.Fatalf("no proof row is named under %s", t.Name())
	}
}

// runProof runs row's scenario and holds it to the oracle, with the
// checks every row of its kind makes: a chaos run injected a fault, and a
// virtual run leaves no waiter behind and, realized, a positive makespan.
func runProof(t *testing.T, row proofRow) *proofRun {
	t.Helper()
	if row.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(row.procs))
	}
	w, o := testWorld(t), oracle(t)
	row.Plan, row.Seed, row.StreamLabel = chaosTestPlan(), testSeed, "chaos-eq"
	if row.LeaseBatch == 0 {
		row.LeaseBatch = 4
	}
	if row.wal {
		row.Plane.WALDir = t.TempDir()
	}
	// A harness bug that blocks a registered waiter off-clock would
	// freeze the timeline: fail fast with the parked-waiter dump.
	row.stallGuard = 90 * time.Second
	out, err := row.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { out.Close() })
	r := &proofRun{Outcome: out, row: row}
	o.hold(t, "campaign", out.Dataset)
	if r.Chaos != nil {
		if t.Failed() {
			t.Logf("fault trace:\n%s", r.Chaos.TraceString())
		}
		if len(r.Chaos.Events()) == 0 {
			t.Error("chaos run injected zero faults; the row proved nothing")
		}
	}
	if r.Clock != nil {
		if reg, parked := r.Clock.Waiters(); reg != 0 || parked != 0 {
			t.Errorf("waiter registry leaked: %d registered, %d parked after Run", reg, parked)
		}
		if row.Realize && r.Campaign.Stats.Elapsed <= 0 {
			t.Error("realized virtual campaign reports no virtual makespan")
		}
	}
	return r
}

func (r *proofRun) trace() string {
	if r.Chaos == nil {
		return ""
	}
	return r.Chaos.TraceString()
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

// proofOracle is chaosTestPlan run the way the paper's campaign ran —
// RunInProcess: one ME at a time, one task per lease, on direct calls
// into a private server with no socket or codec in between — under the
// stream label and heartbeat every row uses.
type proofOracle struct {
	ds          *Dataset
	table4, rtt string
	srv         *amigo.Server // the oracle's server, holding its MEs' vitals
}

var oracleOnce struct {
	sync.Once
	o   proofOracle
	err error
}

// oracle runs the oracle campaign once per test process.
func oracle(t testing.TB) *proofOracle {
	t.Helper()
	w := testWorld(t)
	oracleOnce.Do(func() {
		o := &oracleOnce.o
		o.srv = amigo.NewServer(nil)
		var camp *Campaign
		if camp, oracleOnce.err = runInProcess(o.srv, w, chaosTestPlan(), testSeed, "chaos-eq", true); oracleOnce.err == nil {
			o.ds, oracleOnce.err = Ingest(w.Reg, camp)
		}
		if oracleOnce.err == nil {
			o.table4, o.rtt = Table4(o.ds, chaosTestPlan()).String(), RTTSummary(o.ds, chaosTestPlan()).String()
			if len(o.ds.Speed) == 0 || len(o.ds.Traces) == 0 || len(o.ds.DNS) == 0 || o.table4 == "" || o.rtt == "" {
				oracleOnce.err = errors.New("the oracle ingested an empty dataset; every row would hold to nothing")
			}
		}
	})
	if oracleOnce.err != nil {
		t.Fatal(oracleOnce.err)
	}
	return &oracleOnce.o
}

// hold holds ds to the oracle: its bytes (Crosscheck, which reports a
// dataset that differs at its first diverging record), Table 4 and the
// RTT summary.
func (o *proofOracle) hold(t *testing.T, what string, ds *Dataset) {
	t.Helper()
	if _, err := Crosscheck(ds, o.ds); err != nil {
		t.Errorf("%s: %v", what, err)
	}
	plan := chaosTestPlan()
	if got := Table4(ds, plan).String(); got != o.table4 {
		t.Errorf("%s: Table 4 differs:\ngot:\n%s\nwant:\n%s", what, got, o.table4)
	}
	if got := RTTSummary(ds, plan).String(); got != o.rtt {
		t.Errorf("%s: RTT summary differs:\ngot:\n%s\nwant:\n%s", what, got, o.rtt)
	}
}

// holdResults ingests chaosTestPlan's uploaded results and holds the
// dataset to the oracle.
func (o *proofOracle) holdResults(t *testing.T, what string, results []amigo.Result) {
	t.Helper()
	ds, err := Ingest(testWorld(t).Reg, &Campaign{Schedules: chaosTestPlan().Schedules(), Results: results})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	o.hold(t, what, ds)
}

// walsRotated: every shard's WAL took results and rotated, or the
// durability half of the row proved nothing.
func walsRotated(t *testing.T, r *proofRun) {
	records, segments, shards := 0, 0, r.Fleet.Shards()
	for i := 0; i < shards; i++ {
		wal := r.Fleet.WAL(i)
		if err := wal.Err(); err != nil {
			t.Fatalf("shard %d WAL error: %v", i, err)
		}
		records += wal.Len()
		n, _ := wal.Segments()
		segments += n
	}
	if records == 0 {
		t.Error("no results reached any WAL")
	}
	if segments <= shards {
		t.Errorf("no WAL rotated (%d segments over %d shards) — shrink SegmentBytes", segments, shards)
	}
}

// shardsKilled: a shard died, and an ME met its fresh server.
func shardsKilled(t *testing.T, r *proofRun) {
	if r.Fleet.Kills() == 0 {
		t.Fatal("no shard was killed; the row proved nothing")
	}
	if r.Obs.Counter("fleet_shard_recoveries_total").Value() == 0 {
		t.Error("no ME ran shard recovery despite a kill")
	}
}

// compactKilled: a compaction died at its crash point, the chaos
// schedule's draws (if any) are the fleet's kills, and no compaction
// failed otherwise.
func compactKilled(t *testing.T, r *proofRun) {
	if r.Fleet.CompactKills() == 0 {
		t.Fatal("no compact-kill fired; the row proved nothing")
	}
	if r.Chaos != nil {
		if got := r.Chaos.Counts()["compact-kill"]; got != r.Fleet.CompactKills() {
			t.Errorf("injector recorded %d compact-kills, fleet performed %d", got, r.Fleet.CompactKills())
		}
	}
}

// resharded: both reshard steps completed and copied records, and the
// fleet, its metrics and the manifest on disk all say epoch 2 of 2 shards.
func resharded(t *testing.T, r *proofRun) {
	f := r.Fleet
	if n, st := f.Reshards(); n != 2 || st.Records == 0 {
		t.Fatalf("%d reshards completed, the last copying %d records; want 2, copying some", n, st.Records)
	}
	if f.Shards() != 2 || f.Epoch() != 2 {
		t.Fatalf("%d shards at epoch %d after 1→4→2, want 2 at epoch 2", f.Shards(), f.Epoch())
	}
	if got := r.Obs.Counter("fleet_reshards_total").Value(); got != 2 {
		t.Fatalf("fleet_reshards_total = %d, want 2", got)
	}
	if r.row.Plane.CompactAfter > 0 {
		var buf bytes.Buffer
		r.Obs.WritePrometheus(&buf)
		if !bytes.Contains(buf.Bytes(), []byte("walsink_compactions_total")) {
			t.Error("CompactAfter set but no compaction ran — shrink SegmentBytes")
		}
	}
	if epoch, shards, err := LatestWALSet(r.row.Plane.WALDir); err != nil || epoch != 2 || shards != 2 {
		t.Fatalf("manifest says epoch=%d shards=%d (%v), want 2/2", epoch, shards, err)
	}
}

// coldReplay closes the plane, reopens its latest WAL set from disk —
// resolving whatever a crash left — and holds the dataset rebuilt from
// the replay alone to the oracle.
func coldReplay(t *testing.T, r *proofRun) {
	if err := r.Fleet.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayLatestWALs(r.row.Plane.WALDir)
	if err != nil {
		t.Fatal(err)
	}
	oracle(t).holdResults(t, "cold WAL replay", replayed)
}

// clockCounted: the exposition carries the virtual clock's advances and
// parks.
func clockCounted(t *testing.T, r *proofRun) {
	var b strings.Builder
	if err := r.Obs.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	st := r.Clock.Stats()
	for _, line := range []string{
		fmt.Sprintf("fleet_vclock_advances_total %d\n", st.Advances),
		fmt.Sprintf("fleet_vclock_parks_total %d\n", st.Parks),
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// parkedPerBatch: a clean ME parks for nothing but its leased batches'
// network time.
func parkedPerBatch(t *testing.T, r *proofRun) {
	plan := chaosTestPlan()
	batches := (plan.TasksPerME() + r.row.LeaseBatch - 1) / r.row.LeaseBatch
	if want := uint64(plan.MECount() * batches); r.Clock.Stats().Parks != want {
		t.Errorf("%d parks, want %d (one per leased batch)", r.Clock.Stats().Parks, want)
	}
}

// execTimesAgree: the per-kind execution times are the replay group's
// first row's. The observations are the same multiset, added up in an
// order the histogram's shards choose, so the sums agree to rounding.
func execTimesAgree(t *testing.T, r *proofRun) {
	if r.first == nil {
		return
	}
	for _, task := range chaosTestPlan().Tasks {
		exec := func(reg *obs.Registry) obs.HistSnapshot {
			return reg.Histogram("amigo_endpoint_task_exec_ms", obs.L("kind", task.Kind)).Snapshot()
		}
		got, want := exec(r.Obs), exec(r.first.Obs)
		if got.Count != want.Count || got.Buckets != want.Buckets || math.Abs(got.Sum-want.Sum) > 1e-9*want.Sum {
			t.Errorf("%s execution times: count %d sum %v ms, %s observed count %d sum %v ms",
				task.Kind, got.Count, got.Sum, r.first.row.name, want.Count, want.Sum)
		}
	}
}

// metricsServed scrapes /admin/metrics over HTTP: well-formed Prometheus
// text with a family from every instrumented layer — control server, ME
// client, fleet driver, netsim — and a positive task count; and
// /admin/trace serves JSON events.
func metricsServed(t *testing.T, r *proofRun) {
	resp, err := http.Get(r.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("suspiciously small exposition (%d lines):\n%s", len(lines), text)
	}
	var executed float64
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in line %q: %v", line, err)
		}
		if line[:sp] == "fleet_tasks_executed_total" {
			executed = v
		}
	}
	if executed <= 0 {
		t.Errorf("fleet_tasks_executed_total = %v, want > 0", executed)
	}
	for _, family := range []string{
		"amigo_server_requests_total", "amigo_server_leased_tasks_total",
		"amigo_server_request_duration_ms_bucket", "amigo_server_spool_depth",
		"amigo_endpoint_requests_total", "amigo_endpoint_task_exec_ms_bucket",
		"amigo_endpoint_connections_total",
		"fleet_incarnations_total", "fleet_tasks_executed_total",
		"fleet_chaos_faults_total",
		"netsim_route_cache_hits_total", "netsim_dijkstra_runs_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %s family", family)
		}
	}

	resp, err = http.Get(r.URL + "/admin/trace?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", resp.StatusCode)
	}
	var trace struct {
		Events []obs.Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	for _, e := range trace.Events {
		if e.Seq == 0 || e.Name == "" {
			t.Fatalf("malformed trace event: %+v", e)
		}
	}
}
