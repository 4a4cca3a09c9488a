package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json carries the
// same names and units plus direction and bound; bench_test.go keeps the
// two in step.
type metricDef struct {
	name, unit string
	// needs is what a workload must have for a per-layer metric to mean
	// anything (see workloadHas); a workload without it reports the
	// metric as 0: "this layer does no work here". Empty for metrics
	// every workload has.
	needs string
}

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "results_per_s", unit: "results/s"},
	{name: "cpu_us_per_result", unit: "us"},
	{name: "allocs_per_result", unit: "allocs"},
	{name: "alloc_bytes_per_result", unit: "B"},
	{name: "peak_rss_mib", unit: "MiB"},
}

// perLayer come from the traced run: spans, socket-free probes and
// exact counts (README.md says which is which).
var perLayer = []metricDef{
	{"wire.encode_results_ns_per_result", "ns", ""},
	{"wire.decode_results_ns_per_result", "ns", ""},
	{"wire.tasks_roundtrip_ns_per_task", "ns", ""},
	{"wire.allocs_per_batch", "allocs", ""},
	{"wire.bytes_per_result", "B", ""},

	{"amigo.lease_ns_per_task", "ns", ""},
	{"amigo.submit_ns_per_result", "ns", ""},
	{"amigo.schedule_ns_per_task", "ns", ""},
	{"amigo.handler_lease_us_p50", "us", ""},
	{"amigo.handler_upload_us_p50", "us", ""},
	{"amigo.handler_busy_share", "ratio", ""},
	{"amigo.admin_results_busy_s", "s", "fleet"},
	{"amigo.http_429_share", "ratio", ""},
	{"amigo.redelivered_per_ktask", "count", ""},
	{"amigo.dedup_dropped_batches", "count", ""},
	{"amigo.heap_bytes_per_me", "B", "drain"},
	{"amigo.endpoint_self_us_p50", "us", "drain"},
	{"amigo.endpoint_retries_per_kresult", "count", ""},
	{"amigo.endpoint_conn_reuse_share", "ratio", ""},

	{"http.loopback_us_p50", "us", ""},
	{"http.lease_us_p50", "us", ""},
	{"http.upload_us_p50", "us", ""},
	{"http.lease_us_p99", "us", ""},
	{"http.upload_us_p99", "us", ""},

	{"shard.ring_lookup_ns", "ns", "shard"},
	{"shard.gateway_self_us_p50", "us", "shard"},
	{"shard.gateway_busy_share", "ratio", "shard"},
	{"shard.balance_max_over_fair", "ratio", "shard"},

	{"walsink.append_ns_per_result", "ns", "walsink"},
	{"walsink.compact_ms_per_mib", "ms", "walsink"},
	{"walsink.sync_ms_p50", "ms", "walsink"},
	{"walsink.fsyncs_per_kresult", "count", "walsink"},
	{"walsink.compact_rewrite_share", "ratio", "walsink"},
	{"walsink.replay_ns_per_result", "ns", "walsink"},
	{"walsink.open_ms_per_mib", "ms", "walsink"},
	{"walsink.disk_bytes_per_payload_byte", "ratio", "walsink"},
	{"walsink.disk_bytes_per_result", "B", "walsink"},
	{"walsink.replay_results_per_s", "results/s", "walsink"},

	{"fleet.run_s", "s", "fleet"},
	{"fleet.ingest_ns_per_result", "ns", "fleet"},
	{"fleet.schedules_ms", "ms", "fleet"},
	{"fleet.goroutines_peak", "count", "fleet"},

	{"vclock.sleep_wake_ns", "ns", "vclock"},
	{"vclock.timer_start_stop_ns", "ns", "vclock"},
	{"vclock.advance_ns_per_timer", "ns", "vclock"},
	{"vclock.virtual_makespan_s", "s", "vclock"},
	{"chaos.faults_injected", "count", "vclock"},

	{"measure.exec_us_per_task", "us", "fleet"},
	{"measure.exec_share", "ratio", "fleet"},
	{"netsim.route_hit_ns", "ns", "fleet"},
	{"netsim.route_cache_hit_share", "ratio", "fleet"},
	{"netsim.dijkstra_runs", "count", "fleet"},

	{"obs.counter_inc_ns", "ns", ""},
	{"obs.histogram_observe_ns", "ns", ""},
	{"obs.write_prometheus_ms", "ms", ""},

	{"trace.overhead_share", "ratio", ""},
}

// workloadHas says what each workload has beyond the layers all four
// cross (wire, amigo, net/http, obs): "drain" is the benchmark's own
// Endpoint loop, "fleet" the campaign path (fleet.Driver,
// Endpoint.Execute, netsim); the rest are repo packages.
var workloadHas = map[string][]string{
	"drain_single":           {"drain"},
	"drain_sharded_wal":      {"drain", "shard", "walsink"},
	"campaign_real":          {"fleet"},
	"campaign_virtual_chaos": {"fleet", "vclock"},
}

var workloadNames = []string{"drain_single", "drain_sharded_wal", "campaign_real", "campaign_virtual_chaos"}

func knownWorkload(name string) bool {
	_, ok := workloadHas[name]
	return ok
}

func (c config) has(layer string) bool {
	for _, l := range workloadHas[c.workload] {
		if l == layer {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result; it marshals to the line the driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs []metricDef
	has  func(string) bool
	log  io.Writer
}

// newReport starts every metric of the run's kind at 0, so that exactly
// the declared names are emitted whatever the workload measures.
func newReport(cfg config, log io.Writer) *report {
	r := &report{Correct: true, Metrics: map[string]metricValue{}, defs: endToEnd, has: cfg.has, log: log}
	if cfg.trace {
		r.defs = perLayer
	}
	for _, d := range r.defs {
		r.Metrics[d.name] = metricValue{Unit: d.unit}
	}
	return r
}

// set records a measured value. A metric of a layer the workload does
// not exercise stays 0, and a metric of the other kind of run (an
// end-to-end metric in a traced run, a per-layer one in a timed run) is
// dropped; a name in neither catalog is a bug in the benchmark.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name != name {
			continue
		}
		if d.needs != "" && !r.has(d.needs) {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(0, fmt.Errorf("metric %s is not finite", name))
			v = 0
		}
		r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
		return
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}

// fail marks the run incorrect and counts n operations as failed.
func (r *report) fail(n int, err error) {
	r.Correct = false
	r.Failed += n
	r.logf("# CHECK FAILED: %v", err)
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// printMetrics lists every metric by name with its unit, in catalog
// order.
func (r *report) printMetrics() {
	for _, d := range r.defs {
		r.logf("%-40s %16.6g %s", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of a sample (sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
