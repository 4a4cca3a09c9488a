package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
	"roamsim/internal/wire"
)

// Driver runs a fleet campaign against a live AmiGo control server.
type Driver struct {
	// BaseURL is the control server ("http://127.0.0.1:8080"). The
	// server must expose both the amigo Handler and AdminHandler routes
	// (shard.Mount).
	BaseURL string
	// Client is shared by every ME, and only its Transport is used
	// (amigo.Send); nil gets a keep-alive-tuned default (the fleet would
	// otherwise exhaust ephemeral ports on connection churn).
	Client *http.Client
	// Seed roots the campaign's deterministic randomness.
	Seed int64
	// Workers bounds the ME worker pool (0 = GOMAXPROCS). Ignored when
	// Clock is a *vclock.Virtual: a virtual campaign spawns every ME as
	// a registered clock waiter, because a worker pool would make the
	// ME-to-worker assignment — and with it the quiescence schedule and
	// final virtual timestamp — depend on scheduling instead of the seed.
	Workers int
	// LeaseBatch is the max tasks leased per lease round trip (default
	// 32).
	LeaseBatch int
	// Proto must be "" or amigo.ProtoV3; Run rejects anything else.
	//
	// Deprecated: see amigo.ProtoV3.
	Proto string
	// StreamLabel names the campaign's parent rng fork (default
	// "fleet"; "table4" reproduces the in-process device campaign's
	// streams exactly).
	StreamLabel string
	// Heartbeat makes each ME report vitals once, on its first lease, as
	// the paper's device campaign did. Heartbeats draw from the ME's radio
	// stream, so this must match between runs being compared.
	Heartbeat bool
	// Chaos, when set, injects deterministic faults: each ME's HTTP
	// transport is wrapped per incarnation, retry jitter draws from an
	// out-of-band stream keyed on the injector's seed, and MEs may
	// crash between batches and replay their schedule. The server side
	// needs the same injector's Middleware (Host wraps it when its config
	// carries the injector). Faults cost retries, never data.
	Chaos *chaos.Injector
	// RestartBudget caps per-ME restarts — injected crashes plus
	// straggler-watchdog kills — before the campaign errors out
	// (default: the chaos config's crash cap + 3).
	RestartBudget int
	// Straggler, when positive, is the per-incarnation watchdog on the
	// campaign clock: an ME stuck that long behind pathological faults
	// is cancelled and restarted, consuming restart budget. A watchdog
	// kill changes the fault trace (an extra incarnation) but never
	// the dataset; it is an escape hatch, off by default. On a virtual
	// clock the deadline can only fire while the ME is parked in a
	// clock wait, so kills are deterministic too. Each request of the
	// results read-back (the start-cursor probe, every page) gets the
	// same bound, and a read-back that overruns it fails Run.
	Straggler time.Duration
	// Clock is the campaign time source (nil = wall clock). Inject a
	// *vclock.Virtual to run the campaign on discrete-event time: waits
	// are jumped instead of slept, Stats.Elapsed becomes the campaign's
	// virtual makespan, and the ingested dataset is byte-identical to a
	// real-clock run (the proof table's TestVirtualTimeEquivalence rows).
	Clock vclock.Clock
	// Realize makes every ME spend its tasks' simulated network durations
	// on Clock, each leased batch's in one wait before its upload (see
	// amigo.Endpoint.Realize) — realistic pacing on a real clock, one trip
	// through the quiescence barrier per batch on a virtual one. Datasets
	// never depend on LeaseBatch, nor does a clean run's virtual makespan.
	Realize bool
	// Obs, when set, records fleet-level metrics (incarnations, task
	// throughput, watchdog kills, chaos fault counts) and trace events
	// into the registry, and propagates it to every ME endpoint.
	// Instrumentation never touches the per-ME rng streams, so campaign
	// datasets are byte-identical with or without it.
	Obs *obs.Registry

	met driverMetrics
}

// driverMetrics are the fleet campaign counters, created once per Run
// so the per-ME and per-batch paths touch only atomics.
type driverMetrics struct {
	incarnations    *obs.Counter // ME lifetimes started (first runs + restarts)
	crashRestarts   *obs.Counter // restarts caused by injected crashes
	watchdogKills   *obs.Counter // stragglers cancelled and restarted
	tasksExecuted   *obs.Counter // tasks executed across all MEs
	meFailures      *obs.Counter // MEs whose lifecycle ended in an error
	shardRecoveries *obs.Counter // re-register/re-schedule cycles after a shard lost its state
}

// initObs creates the metric handles (nil no-ops when no registry is
// attached) and registers the chaos fault-count and virtual-clock gauges.
func (d *Driver) initObs() {
	d.met = driverMetrics{
		incarnations:    d.Obs.Counter("fleet_incarnations_total"),
		crashRestarts:   d.Obs.Counter("fleet_crash_restarts_total"),
		watchdogKills:   d.Obs.Counter("fleet_watchdog_kills_total"),
		tasksExecuted:   d.Obs.Counter("fleet_tasks_executed_total"),
		meFailures:      d.Obs.Counter("fleet_me_failures_total"),
		shardRecoveries: d.Obs.Counter("fleet_shard_recoveries_total"),
	}
	if d.Obs != nil && d.Chaos != nil {
		inj := d.Chaos
		for _, kind := range chaos.FaultKinds {
			kind := kind
			d.Obs.CounterFunc("fleet_chaos_faults_total", func() float64 {
				return float64(inj.Counts()[kind])
			}, obs.L("kind", kind))
		}
	}
	if v, ok := d.Clock.(*vclock.Virtual); ok && d.Obs != nil {
		d.Obs.CounterFunc("fleet_vclock_advances_total", func() float64 { return float64(v.Stats().Advances) })
		d.Obs.CounterFunc("fleet_vclock_parks_total", func() float64 { return float64(v.Stats().Parks) })
	}
}

// Stats summarizes one campaign run.
type Stats struct {
	MEs            int
	TasksScheduled int
	Results        int
	Elapsed        time.Duration
}

// Campaign is the output of a driver run: the expanded plan, every
// uploaded result fetched back from the server, and run stats.
type Campaign struct {
	Plan      Plan
	Schedules []MESchedule
	Results   []amigo.Result
	Stats     Stats
}

func (d *Driver) workers() int {
	if d.Workers > 0 {
		return d.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (d *Driver) clock() vclock.Clock {
	if d.Clock != nil {
		return d.Clock
	}
	return vclock.Wall
}

// watchdog bounds one ME incarnation, or one request of the results
// read-back, by Straggler on the campaign clock when it is set.
func (d *Driver) watchdog() (context.Context, context.CancelFunc) {
	if d.Straggler > 0 {
		return vclock.ContextWithTimeout(context.Background(), d.clock(), d.Straggler)
	}
	return context.Background(), func() {}
}

func (d *Driver) leaseBatch() int {
	if d.LeaseBatch > 0 {
		return d.LeaseBatch
	}
	return 32
}

func (d *Driver) streamLabel() string {
	if d.StreamLabel != "" {
		return d.StreamLabel
	}
	return "fleet"
}

func (d *Driver) restartBudget() int {
	if d.RestartBudget > 0 {
		return d.RestartBudget
	}
	if d.Chaos != nil {
		return 3 + d.Chaos.Config().MaxCrashes
	}
	return 3
}

// Run executes the plan: first the whole plan is scheduled — which is
// what makes each ME's shard know it — with one POST /admin/schedule per
// block of up to blockMEs MEs (scheduleAll), so an ME's own requests
// are its leases and uploads; then every ME leases, executes and uploads
// in batches until drained; finally the uploaded results are fetched back
// from the server. Stats.Elapsed covers all three.
//
// Determinism: per-ME rng streams are pre-forked serially in schedule
// order before the pool starts, and each ME's tasks execute in queue
// order within its own goroutine, so uploaded payloads depend only on
// (seed, plan), never on Workers or scheduling. Only the arrival order
// of results varies; Ingest canonicalizes it.
func (d *Driver) Run(w *airalo.World, plan Plan) (*Campaign, error) {
	plan = plan.withDefaults()
	scheds := plan.Schedules()
	for _, sc := range scheds {
		if w.Deployments[sc.ISO] == nil {
			return nil, fmt.Errorf("fleet: no deployment for country %q", sc.ISO)
		}
	}
	if d.Proto != "" && d.Proto != amigo.ProtoV3 {
		return nil, fmt.Errorf("fleet: unknown protocol %q (the batch protocol is v3)", d.Proto)
	}
	d.initObs()
	client := d.Client
	if client == nil {
		// The driver's own client: its idle keep-alive connections (and
		// their goroutine pairs) go with the campaign. A caller's client
		// is the caller's to close.
		client = &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}}
		defer client.CloseIdleConnections()
	}
	if d.Chaos != nil {
		// Latency spikes stall on the campaign clock, not the wall.
		d.Chaos.SetClock(d.clock())
	}

	// Pre-fork, then spawn: one child SEED per ME, captured serially in
	// canonical schedule order (see internal/rng). Storing the seed
	// rather than the Source lets a crashed ME recreate its stream from
	// the top and replay its schedule byte-identically.
	parent := rng.New(d.Seed).Fork(d.streamLabel())
	seeds := make([]int64, len(scheds))
	for i, sc := range scheds {
		seeds[i] = parent.ForkSeed(sc.Label)
	}

	startCursor, err := d.fetchCursor(client)
	if err != nil {
		return nil, err
	}

	start := d.clock().Now()
	// Each ME's own copy of its tasks, which the schedule reply pins the
	// assigned IDs into.
	tasks := make([][]amigo.Task, len(scheds))
	for i, sc := range scheds {
		tasks[i] = slices.Clone(sc.Tasks)
	}
	if err := d.scheduleAll(client, scheds, tasks); err != nil {
		return nil, err
	}
	errs := make([]error, len(scheds))
	if v, ok := d.clock().(*vclock.Virtual); ok {
		// Virtual time: every ME is a registered clock waiter, all
		// spawned after the whole cohort is added (the rng pre-fork rule
		// applied to the waiter registry). Quiescence is then a global
		// barrier over the full fleet, so the advance sequence — and the
		// final virtual timestamp — is a pure function of (seed, plan),
		// independent of Workers and GOMAXPROCS.
		var wg sync.WaitGroup
		v.Add(len(scheds))
		wg.Add(len(scheds))
		for i := range scheds {
			i := i
			go func() {
				defer wg.Done()
				defer v.Done()
				errs[i] = d.runME(client, scheds[i], tasks[i], w.Deployments[scheds[i].ISO], seeds[i])
			}()
		}
		wg.Wait()
	} else {
		RunPool(d.workers(), len(scheds), func(i int) {
			errs[i] = d.runME(client, scheds[i], tasks[i], w.Deployments[scheds[i].ISO], seeds[i])
		})
	}
	// Report every failed ME, not just the first: a campaign debugging
	// session needs to see whether one straggler died or half the fleet
	// did, and which MEs by name.
	var failures []error
	for i, err := range errs {
		if err != nil {
			d.met.meFailures.Add(1)
			failures = append(failures, fmt.Errorf("%s: %w", scheds[i].Name, err))
		}
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("fleet: %d/%d MEs failed: %w", len(failures), len(scheds), errors.Join(failures...))
	}

	results, err := d.fetchResults(client, startCursor)
	if err != nil {
		return nil, err
	}
	camp := &Campaign{
		Plan:      plan,
		Schedules: scheds,
		Results:   results,
		Stats: Stats{
			MEs:            len(scheds),
			TasksScheduled: len(scheds) * plan.TasksPerME(),
			Results:        len(results),
			Elapsed:        d.clock().Now().Sub(start),
		},
	}
	return camp, nil
}

// runME is the per-ME lifecycle with crash tolerance: run incarnations
// until one drains the queue cleanly. An injected crash or a straggler
// watchdog kill starts the next incarnation, which replays the full
// schedule from a recreated rng stream; Run scheduled it, under the IDs
// pinned in tasks, and later incarnations ask the server to re-deliver
// it, so task IDs (and therefore idempotency keys) are stable across
// restarts.
//
// Shard recovery: when the control plane answers "unknown ME"
// (amigo.ErrUnknownME) mid-campaign — a lease, the redelivery lease of a
// restarted ME included — the shard that knew this ME has lost its
// in-memory state: a killed shard came back as a fresh server over its
// surviving WAL, and a lease never creates an ME. The next incarnation
// schedules the ME anew as a block of one, with the pinned task IDs, so
// re-executed uploads carry the same (ME, TaskID) identities and dedup
// to nothing at ingest.
func (d *Driver) runME(client *http.Client, sc MESchedule, tasks []amigo.Task, dep *airalo.Deployment, seed int64) error {
	scheduled := true
	recoveries := 0
	for inc := 0; ; inc++ {
		crashed, err := d.runIncarnation(client, sc, dep, seed, inc, &scheduled, tasks)
		if err != nil {
			if errors.Is(err, amigo.ErrUnknownME) && recoveries < d.restartBudget() {
				recoveries++
				scheduled = false // re-schedule with pinned IDs
				d.met.shardRecoveries.Add(1)
				d.Obs.Trace().Record("shard-recover",
					obs.L("me", sc.Name), obs.L("inc", fmt.Sprint(inc)))
				continue
			}
			if d.Straggler > 0 && errors.Is(err, context.DeadlineExceeded) && inc < d.restartBudget() {
				d.met.watchdogKills.Add(1)
				d.Obs.Trace().Record("watchdog-kill",
					obs.L("me", sc.Name), obs.L("inc", fmt.Sprint(inc)))
				continue // watchdog kill: reclaim the straggler, restart it
			}
			return err
		}
		if !crashed {
			return nil
		}
		if inc+1 > d.restartBudget() {
			return fmt.Errorf("fleet: %s exceeded restart budget (%d)", sc.Name, d.restartBudget())
		}
		d.met.crashRestarts.Add(1)
		d.Obs.Trace().Record("crash-restart",
			obs.L("me", sc.Name), obs.L("inc", fmt.Sprint(inc)))
	}
}

// runIncarnation runs one ME lifetime: re-schedule the ME if its shard
// lost it, or make the first lease a redelivery after a crash, optionally
// heartbeat, then lease/execute/upload until drained. It reports
// crashed=true when the chaos injector kills the ME between batches.
func (d *Driver) runIncarnation(client *http.Client, sc MESchedule, dep *airalo.Deployment, seed int64, inc int, scheduled *bool, tasks []amigo.Task) (crashed bool, err error) {
	ctx, cancel := d.watchdog()
	defer cancel()

	// Recreating the stream from the stored seed makes every
	// incarnation's draws — heartbeat vitals included — identical to the
	// first run's, so replayed payloads are byte-identical and server
	// dedup can drop them.
	d.met.incarnations.Add(1)
	ep := amigo.NewEndpoint(sc.Name, d.BaseURL, dep, rng.New(seed))
	ep.Client = client
	ep.Ctx = ctx
	ep.Obs = d.Obs
	ep.Clock = d.clock()
	ep.Realize = d.Realize
	if d.Chaos != nil {
		// Fault injection wraps this incarnation's transport; retry
		// jitter draws from a stateless out-of-band stream so backoff
		// timing never perturbs the measurement stream.
		ep.Client = &http.Client{Transport: d.Chaos.Transport(sc.Name, inc, client.Transport)}
		ep.Retry.Jitter = rng.Stream(d.Chaos.Seed(), fmt.Sprintf("jitter/%s/%d", sc.Name, inc))
	}

	switch {
	case !*scheduled:
		body := wire.AppendSchedule(nil, sc.Name, tasks)
		if err := d.scheduleBlock(ctx, client, body, []MESchedule{sc}, [][]amigo.Task{tasks}); err != nil {
			return false, err
		}
		*scheduled = true
	case inc > 0:
		ep.Redeliver()
	}
	if d.Heartbeat {
		ep.Heartbeat()
	}
	for round := 0; ; round++ {
		n, err := ep.RunBatch(d.leaseBatch())
		if err != nil {
			return false, err
		}
		if n == 0 {
			return false, nil
		}
		d.met.tasksExecuted.Add(int64(n))
		if d.Chaos != nil && d.Chaos.MaybeCrash(sc.Name, inc, round) {
			return true, nil
		}
	}
}

// Request headers shared read-only by every schedule and page request.
var (
	frameHeader = http.Header{"Content-Type": {wire.ContentType}}
	pageHeader  = http.Header{}
)

// blockMEs is how many MEs' schedule frames one POST /admin/schedule
// carries, unless the body's bounds cut the block shorter.
const blockMEs = 64

// scheduleAll schedules every ME before any starts. The frames are
// encoded once, back to back, and sent in blocks of up to blockMEs
// MEs, cut shorter where a body would pass wire.MaxFrame bytes or
// wire.MaxScheduleCount tasks; the blocks run on the worker pool, each
// under the watchdog, and the IDs the plane assigns are pinned into
// tasks. Operator traffic carries no chaos: a schedule is never faulted.
func (d *Driver) scheduleAll(client *http.Client, scheds []MESchedule, tasks [][]amigo.Task) error {
	var body []byte
	begin := make([]int, len(scheds)+1) // ME i's frame is body[begin[i]:begin[i+1]]
	for i, sc := range scheds {
		body = wire.AppendSchedule(body, sc.Name, tasks[i])
		begin[i+1] = len(body)
	}
	var blocks [][2]int // [lo, hi) ME ranges
	lo, count := 0, 0
	for i := range scheds {
		if i > lo && (i-lo == blockMEs || begin[i+1]-begin[lo] > wire.MaxFrame ||
			count+len(tasks[i]) > wire.MaxScheduleCount) {
			blocks = append(blocks, [2]int{lo, i})
			lo, count = i, 0
		}
		count += len(tasks[i])
	}
	if lo < len(scheds) {
		blocks = append(blocks, [2]int{lo, len(scheds)})
	}
	errs := make([]error, len(blocks))
	RunPool(d.workers(), len(blocks), func(k int) {
		ctx, cancel := d.watchdog()
		defer cancel()
		lo, hi := blocks[k][0], blocks[k][1]
		errs[k] = d.scheduleBlock(ctx, client, body[begin[lo]:begin[hi]], scheds[lo:hi], tasks[lo:hi])
	})
	return errors.Join(errs...)
}

// scheduleBlock POSTs body — the MsgSchedule frames of scheds, in order —
// and reads the reply, one MsgTasks frame per ME, back over tasks: the
// same tasks under the IDs the server assigned, or honored when they
// carried pinned ones — a recovery re-schedule pins them so replayed
// uploads dedup.
func (d *Driver) scheduleBlock(ctx context.Context, client *http.Client, body []byte, scheds []MESchedule, tasks [][]amigo.Task) error {
	u, err := amigo.Route(d.BaseURL, "/admin/schedule")
	if err != nil {
		return err
	}
	resp, err := amigo.Send(ctx, client, http.MethodPost, u, frameHeader, body)
	if err != nil {
		return err
	}
	defer amigo.DrainClose(resp) // drains any frame past the last ME's
	if resp.StatusCode >= 300 {
		who := scheds[0].Name
		if len(scheds) > 1 {
			who = fmt.Sprintf("%d MEs from %s", len(scheds), who)
		}
		return fmt.Errorf("fleet: schedule %s: HTTP %d", who, resp.StatusCode)
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	for i, sc := range scheds {
		h, payload, err := wire.ReadFrame(resp.Body, (*buf)[:0])
		*buf = payload // keep any growth pooled
		var got []amigo.Task
		if err == nil && h.Type != wire.MsgTasks {
			err = fmt.Errorf("unexpected message type 0x%02x", h.Type)
		} else if err == nil {
			// The capacity bound keeps a reply longer than the schedule
			// from writing past it.
			got, err = dec.Tasks(payload, tasks[i][:0:len(tasks[i])])
		}
		if err != nil {
			return fmt.Errorf("fleet: schedule %s: decoding response: %w", sc.Name, err)
		}
		if len(got) != len(tasks[i]) {
			return fmt.Errorf("fleet: schedule %s: server assigned %d IDs for %d tasks", sc.Name, len(got), len(tasks[i]))
		}
	}
	return nil
}

// fetchPage GETs one page of /admin/results under ctx — MsgResults
// frames, the next cursor in a header — and decodes it onto dst; the
// decoded payloads alias the page's own frame buffers
// (wire.Decoder.ReadResults), which live as long as they do. limit <= 0
// leaves the page size to the server; cursor -1 asks for just the
// current cursor.
func (d *Driver) fetchPage(ctx context.Context, client *http.Client, cursor, limit int, dst []amigo.Result) ([]amigo.Result, int, error) {
	route, err := amigo.Route(d.BaseURL, "/admin/results")
	if err != nil {
		return dst, 0, err
	}
	u := *route
	u.RawQuery = "cursor=" + strconv.Itoa(cursor)
	if limit > 0 {
		u.RawQuery += "&limit=" + strconv.Itoa(limit)
	}
	resp, err := amigo.Send(ctx, client, http.MethodGet, &u, pageHeader, nil)
	if err != nil {
		return dst, 0, err
	}
	defer amigo.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return dst, 0, fmt.Errorf("fleet: results: HTTP %d", resp.StatusCode)
	}
	next, err := strconv.Atoi(resp.Header.Get(wire.CursorHeader))
	if err != nil {
		return dst, 0, fmt.Errorf("fleet: results: no %s header: %w", wire.CursorHeader, err)
	}
	dec := wire.GetDecoder()
	defer wire.PutDecoder(dec)
	if dst, err = dec.ReadResults(resp.Body, dst); err != nil {
		return dst, 0, fmt.Errorf("fleet: results: page at cursor %d: %w", cursor, err)
	}
	return dst, next, nil
}

// fetchCursor asks the plane for its results log's current cursor,
// within the watchdog.
func (d *Driver) fetchCursor(client *http.Client) (int, error) {
	ctx, cancel := d.watchdog()
	defer cancel()
	_, cursor, err := d.fetchPage(ctx, client, -1, 0, nil)
	return cursor, err
}

// fetchResults pages through /admin/results from the given cursor to
// the end of the log, into one slice sized up front from the log's
// current cursor. Each page gets its own watchdog.
func (d *Driver) fetchResults(client *http.Client, cursor int) ([]amigo.Result, error) {
	const pageSize = 5000
	end, err := d.fetchCursor(client)
	if err != nil {
		return nil, err
	}
	out := make([]amigo.Result, 0, max(end-cursor, 0))
	for {
		n := len(out)
		var next int
		ctx, cancel := d.watchdog()
		out, next, err = d.fetchPage(ctx, client, cursor, pageSize, out)
		cancel()
		if err != nil {
			return nil, err
		}
		if len(out) == n || next <= cursor {
			return out, nil
		}
		cursor = next
	}
}

// RunInProcess executes the same plan the way the paper's campaign ran:
// serially, one ME at a time and one task per lease, on direct calls
// into a private control server (amigo.DirectTransport) — no socket, no
// codec. It is the oracle the fleet driver is cross-checked against: for
// equal (seed, label, heartbeat, plan) it ingests byte-identical datasets.
func RunInProcess(w *airalo.World, plan Plan, seed int64, label string, heartbeat bool) (*Campaign, error) {
	return runInProcess(amigo.NewServer(nil), w, plan, seed, label, heartbeat)
}

// runInProcess is RunInProcess on srv, for a test to read its state back.
func runInProcess(srv *amigo.Server, w *airalo.World, plan Plan, seed int64, label string, heartbeat bool) (*Campaign, error) {
	plan = plan.withDefaults()
	scheds := plan.Schedules()

	parent := rng.New(seed).Fork(label)
	start := vclock.Wall.Now()
	for _, sc := range scheds {
		dep := w.Deployments[sc.ISO]
		if dep == nil {
			return nil, fmt.Errorf("fleet: no deployment for country %q", sc.ISO)
		}
		ep := amigo.NewEndpoint(sc.Name, "", dep, parent.Fork(sc.Label))
		ep.Transport = amigo.DirectTransport{Server: srv}
		if _, err := srv.ScheduleBatch(sc.Name, sc.Tasks); err != nil {
			return nil, err
		}
		if heartbeat {
			ep.Heartbeat()
		}
		for {
			n, err := ep.RunBatch(1)
			if err != nil {
				return nil, err
			}
			if n == 0 {
				break
			}
		}
	}
	results := srv.Results()
	return &Campaign{
		Plan:      plan,
		Schedules: scheds,
		Results:   results,
		Stats: Stats{
			MEs:            len(scheds),
			TasksScheduled: len(scheds) * plan.TasksPerME(),
			Results:        len(results),
			Elapsed:        vclock.Wall.Now().Sub(start),
		},
	}, nil
}

// RunPool executes n index-addressed jobs on a bounded worker pool of
// min(workers, n) goroutines (at least one) that claim indices from a
// shared counter; it returns when every job has run. The jobs'
// execution order is unspecified, so a caller that needs determinism
// pre-forks any random streams before calling and merges per-index
// results in index order afterwards.
func RunPool(workers, n int, job func(i int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
