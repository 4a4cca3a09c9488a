package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/obs"
)

// spanCapacity bounds the span buffer (64 B a span). A traced drain
// iteration records about 20k spans, a chaos campaign about 40k.
const spanCapacity = 1 << 20

// tracedWorkload is what a workload adds for the traced run.
type tracedWorkload interface {
	workload
	// layerMetrics reports the workload's own span- and count-based
	// per-layer metrics. busy is the wall time of the traced iterations
	// times nproc, in µs: the denominator of every busy share.
	layerMetrics(rep *report, v spanView, busy float64)
	// sample hands the probes inputs captured from the workload.
	sample() probeInputs
}

// probeInputs are real inputs of the workload for the socket-free layer
// probes to chew on.
type probeInputs struct {
	names   []string         // ME names
	tasks   []amigo.Task     // one ME's schedule
	batches [][]amigo.Result // upload batches as the clients sent them
	world   *airalo.World    // campaigns: the world the MEs measured, caches warm
}

// runTraced is the -trace 1 run: a fixed number of iterations on two
// instances of the workload, one bare and one with an obs.Registry
// everywhere it can be injected plus the benchmark's span wrappers,
// alternating so both see the same machine. The difference between them
// is the tracing overhead; the spans, the registry's counters and the
// layer probes give the per-layer metrics.
func runTraced(cfg config, rep *report) error {
	lat := newLatencies()
	tr := newTracer(spanCapacity)
	heap := heapInuse()
	bare, err := build(cfg, nil, nil)
	if err != nil {
		return err
	}
	defer bare.close()
	// What one plane holds once every ME is registered and has drained
	// one 64-task backlog; the done-log it keeps for Requeue is in it.
	rep.set("amigo.heap_bytes_per_me", (heapInuse()-heap)/float64(cfg.mes))
	w, err := build(cfg, tr, lat)
	if err != nil {
		return err
	}
	defer w.close()
	traced := w.(tracedWorkload)
	tr.next.Store(0) // drop the warm-up's spans

	var bareRates, tracedRates []float64
	var busy, cpu float64
	results := 0
	for i := 0; i < cfg.tracedIters; i++ {
		st, err := iterate(bare, false)
		rep.Attempted += st.results
		if err != nil {
			rep.fail(st.results, fmt.Errorf("untraced iteration %d: %w", i, err))
			break
		}
		bareRates = append(bareRates, float64(st.results)/st.wall.Seconds())

		tr.iter.Store(int32(i))
		st, err = iterate(traced, false)
		rep.Attempted += st.results
		if err != nil {
			rep.fail(st.results, fmt.Errorf("traced iteration %d: %w", i, err))
			break
		}
		tracedRates = append(tracedRates, float64(st.results)/st.wall.Seconds())
		busy += micros(st.wall) * float64(cfg.nproc)
		cpu += micros(st.cpu)
		results += st.results
	}
	if len(tracedRates) == 0 {
		return nil
	}
	if err := traced.finish(rep); err != nil {
		rep.fail(0, err)
	}
	rep.set("trace.overhead_share", (median(bareRates)-median(tracedRates))/median(bareRates))
	rep.logf("# traced run: %d iterations a side, results_per_s untraced %.0f, traced %.0f",
		len(tracedRates), median(bareRates), median(tracedRates))

	v, dropped := tr.view()
	if dropped > 0 {
		rep.fail(0, fmt.Errorf("span buffer full: %d spans dropped", dropped))
	}
	spanMetrics(rep, v, busy, lat)
	traced.layerMetrics(rep, v, busy)
	timeTable(rep, v, float64(results), busy, cpu)
	if err := runProbes(cfg, rep, traced.sample()); err != nil {
		return err
	}

	out := cfg.out
	if out == "" {
		out = filepath.Join(os.TempDir(), "roambench-trace-"+cfg.workload+".json")
	}
	if err := v.writeChrome(out); err != nil {
		return err
	}
	rep.logf("# %d spans recorded; the last traced iteration's are in %s", len(v.spans), out)
	return nil
}

// heapInuse is the heap held after a collection.
func heapInuse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse)
}

// Data-plane routes of the v3 protocol.
const (
	routeLease  = "/v3/tasks/lease"
	routeUpload = "/v3/results"
)

func dataPlane(name string) func(*span) bool {
	return func(s *span) bool { return s.name == name && (s.route == routeLease || s.route == routeUpload) }
}

// spanMetrics are the span-based metrics every workload shares.
// amigo.handler wraps an amigo.Server's handler (each gateway backend on
// the sharded plane); http.roundtrip's self time is the round trip
// minus the outermost server span under it: the loopback socket plus
// net/http on both sides.
func spanMetrics(rep *report, v spanView, busy float64, lat *latencies) {
	rep.set("amigo.handler_lease_us_p50", median(v.pick(false, namedRoute("amigo.handler", routeLease))))
	rep.set("amigo.handler_upload_us_p50", median(v.pick(false, namedRoute("amigo.handler", routeUpload))))
	rep.set("amigo.handler_busy_share", sum(v.pick(false, named("amigo.handler")))/busy)
	rep.set("http.loopback_us_p50", median(v.pick(true, dataPlane("http.roundtrip"))))
	leases, uploads := lat.of(opLease), lat.of(opUpload)
	rep.set("http.lease_us_p50", median(leases))
	rep.set("http.upload_us_p50", median(uploads))
	rep.set("http.lease_us_p99", quantile(leases, 0.99))
	rep.set("http.upload_us_p99", quantile(uploads, 0.99))
	rep.logf("# client latency samples: %d leases, %d uploads", len(leases), len(uploads))
}

// timeTable prints where the traced iterations' time went: the self
// time of every kind of span, per result. On the drains a client's spans
// run one after another with nproc clients on nproc cores, so they add
// up to the wall the clients spent, which the process's CPU time can be
// held against. On the campaigns the ME-side work between requests
// (Endpoint.Execute, the driver's JSON, rng forks) is under no span and
// is the gap between the sum and the budget. What CPU time exceeds the
// sum by, or falls short of the budget by, is GC and scheduler work on
// one side and waiting (fsync, a serialized sink, an idle core during
// the single-threaded ingest) on the other.
func timeTable(rep *report, v spanView, results, busy, cpu float64) {
	notes := map[string]string{
		"http.conn_wait": "queueing for one of the nproc connections: waiting, not work; left out of the sum",
		"fleet.run":      "wall of Driver.Run, one goroutine; its workers' time is in the request rows; left out of the sum",
		"fleet.ingest":   "wall of Ingest, single-threaded",
	}
	self := map[string]float64{}
	for i := range v.spans {
		if s := &v.spans[i]; s.end != 0 {
			self[s.name] += micros(v.self[i])
		}
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	rep.logf("# where the time goes: us per result over the traced iterations, self time by kind of span")
	var covered float64
	for _, name := range names {
		if name != "http.conn_wait" && name != "fleet.run" {
			covered += self[name]
		}
		note := notes[name]
		if note != "" {
			note = "  (" + note + ")"
		}
		rep.logf("#   %-16s %10.3f%s", name, self[name]/results, note)
	}
	rep.logf("#   %-16s %10.3f", "sum", covered/results)
	rep.logf("#   %-16s %10.3f  (iteration wall x nproc: what nproc busy cores could have spent)", "budget", busy/results)
	rep.logf("#   %-16s %10.3f  (getrusage user+sys)", "process CPU", cpu/results)
}

// counter reads one series of a registry (0 when it was never touched).
func counter(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	return float64(reg.Counter(name, labels...).Value())
}

// endpointCounts are the amigo_endpoint_* ratios the Endpoint's own
// instrumentation gives once a registry is attached.
func endpointCounts(rep *report, reg *obs.Registry, results int) {
	var requests float64
	for _, path := range []string{"/v1/register", "/v1/status", "/v2/tasks/requeue", routeLease, routeUpload} {
		requests += counter(reg, "amigo_endpoint_requests_total", obs.L("path", path))
	}
	retries := counter(reg, "amigo_endpoint_retries_total", obs.L("op", "lease")) +
		counter(reg, "amigo_endpoint_retries_total", obs.L("op", "results"))
	reused := counter(reg, "amigo_endpoint_connections_total", obs.L("reused", "true"))
	dialled := counter(reg, "amigo_endpoint_connections_total", obs.L("reused", "false"))
	if requests > 0 {
		rep.set("amigo.http_429_share", counter(reg, "amigo_endpoint_backpressure_429_total")/requests)
	}
	if reused+dialled > 0 {
		rep.set("amigo.endpoint_conn_reuse_share", reused/(reused+dialled))
	}
	rep.set("amigo.endpoint_retries_per_kresult", 1000*retries/float64(results))
}

// serverCounts are the amigo_server_* ratios of a single server with a
// registry attached (shard servers carry none, see fleet.NewShardedFleet).
func serverCounts(rep *report, reg *obs.Registry) {
	if leased := counter(reg, "amigo_server_leased_tasks_total"); leased > 0 {
		rep.set("amigo.redelivered_per_ktask", 1000*counter(reg, "amigo_server_redelivered_tasks_total")/leased)
	}
	rep.set("amigo.dedup_dropped_batches", counter(reg, "amigo_server_dedup_dropped_batches_total"))
}

func (d *drain) layerMetrics(rep *report, v spanView, busy float64) {
	results := d.plane.iterations * len(d.eps) * tasksPerME
	endpointCounts(rep, d.reg, results)
	rep.set("amigo.endpoint_self_us_p50", median(v.pick(true, func(s *span) bool {
		return s.name == "endpoint.lease" || s.name == "endpoint.upload"
	})))
	if d.cfg.workload == "drain_single" {
		serverCounts(rep, d.reg)
		return
	}
	rep.set("shard.gateway_self_us_p50", median(v.pick(true, dataPlane("shard.gateway"))))
	rep.set("shard.gateway_busy_share", sum(v.pick(true, named("shard.gateway")))/busy)
	most, total := 0, 0
	for _, n := range d.wal.shardLens {
		most, total = max(most, n), total+n
	}
	rep.set("shard.balance_max_over_fair", float64(most)*float64(len(d.wal.shardLens))/float64(total))

	var fsyncs, merged, rewritten float64
	var fsyncMs obs.HistSnapshot
	for i := 0; i < walShards; i++ {
		shard := obs.L("shard", fmt.Sprint(i))
		fsyncs += counter(d.reg, "walsink_fsyncs_total", shard)
		merged += counter(d.reg, "walsink_compact_in_bytes_total", shard)
		rewritten += counter(d.reg, "walsink_compact_out_bytes_total", shard)
		snap := d.reg.Histogram("walsink_fsync_ms", shard).Snapshot()
		fsyncMs.Count += snap.Count
		for b := range snap.Buckets {
			fsyncMs.Buckets[b] += snap.Buckets[b]
		}
	}
	// Compaction swaps its source bytes for its output, so what was
	// appended is what is on disk with that swap undone.
	appended := float64(d.wal.disk) + merged - rewritten
	rep.set("walsink.fsyncs_per_kresult", 1000*fsyncs/float64(results))
	rep.set("walsink.sync_ms_p50", histQuantile(fsyncMs, 0.5))
	rep.set("walsink.compact_rewrite_share", rewritten/appended)
}

// histQuantile estimates a quantile of an obs histogram, interpolating
// inside the (power-of-two) bucket it falls in.
func histQuantile(h obs.HistSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	bounds := obs.BucketBounds()
	want, seen := q*float64(h.Count), 0.0
	for i, n := range h.Buckets {
		if seen+float64(n) < want || n == 0 {
			seen += float64(n)
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(want-seen)/float64(n)
	}
	return bounds[len(bounds)-1]
}

func (d *drain) sample() probeInputs {
	in := probeInputs{names: d.in.names, tasks: d.in.tmpl}
	for me := 0; me < min(32, len(d.in.names)); me++ {
		for pos := 0; pos < tasksPerME; pos += leaseBatch {
			var batch []amigo.Result
			for k := pos; k < pos+leaseBatch; k++ {
				t := d.in.tmpl[k]
				t.ID = me*tasksPerME + k + 1
				batch = append(batch, d.in.result(me, k, t))
			}
			in.batches = append(in.batches, batch)
		}
	}
	return in
}

func (c *campaign) layerMetrics(rep *report, v spanView, busy float64) {
	scheduled := c.plan.MECount() * c.plan.TasksPerME()
	endpointCounts(rep, c.reg, scheduled)
	serverCounts(rep, c.reg)
	campaigns := v.pick(false, named("fleet.run"))
	rep.set("fleet.run_s", median(campaigns)/1e6)
	rep.set("fleet.ingest_ns_per_result", 1e3*median(v.pick(false, named("fleet.ingest")))/float64(scheduled))
	rep.set("fleet.goroutines_peak", float64(c.goroutinesPeak))
	rep.set("amigo.admin_results_busy_s", sum(v.pick(false, namedRoute("amigo.handler", "/admin/results")))/1e6/float64(len(campaigns)))
	// Route-cache traffic since the warm-up: what the timed iterations see.
	hits, misses, runs := c.world.Net.RouteCacheStats()
	hits, misses, runs = hits-c.routes0[0], misses-c.routes0[1], runs-c.routes0[2]
	if hits+misses > 0 {
		rep.set("netsim.route_cache_hit_share", float64(hits)/float64(hits+misses))
	}
	rep.set("netsim.dijkstra_runs", float64(runs))
}

func (c *campaign) sample() probeInputs {
	scheds := c.plan.Schedules()
	in := probeInputs{tasks: scheds[0].Tasks, world: c.world}
	for _, sc := range scheds {
		in.names = append(in.names, sc.Name)
	}
	// The last iteration's uploads, regrouped the way the MEs batched
	// them: per ME, in task order, leaseBatch at a time.
	byME := map[string][]amigo.Result{}
	for _, r := range c.camp.Results {
		byME[r.ME] = append(byME[r.ME], r)
	}
	for _, name := range in.names[:min(64, len(in.names))] {
		rs := byME[name]
		for len(rs) > 0 {
			n := min(leaseBatch, len(rs))
			in.batches = append(in.batches, rs[:n])
			rs = rs[n:]
		}
	}
	return in
}
