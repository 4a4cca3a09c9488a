// Package obs is the dependency-free observability layer for the fleet
// control plane: atomic counters, callback gauges, lock-sharded histograms
// with fixed log-scale buckets, a ring-buffer span/event recorder, and
// a Prometheus text-format exposition endpoint.
//
// The paper's testbed lived or died on seeing what 24 remote MEs were
// doing (vitals reporting, per-tool timings, failure triage across
// volunteers); the reproduction runs thousands of simulated MEs under
// chaos injection, which needs the same observation plane at scale.
//
// # Design constraints
//
//   - Off the hot path: counters are single atomics;
//     histograms shard their locks so concurrent observers rarely
//     contend; metric handles are created once and cached by callers,
//     so the request path never takes the registry lock.
//   - Determinism-neutral: instrumentation never reads the measurement
//     rng, never alters retry timing, and never feeds back into
//     payloads — campaign datasets are byte-identical with metrics on
//     or off (pinned by the TestFleetMetricsEquivalence rows of
//     internal/fleet's proof table).
//   - Nil-safe: every method works on a nil *Registry or nil metric
//     handle as a no-op, so instrumented code needs no "is observability
//     enabled" branches.
//
// Snapshots are deterministic-friendly: histogram buckets are fixed
// log-scale bounds (independent of observed data), and exposition
// output is sorted by family name and label set.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (a Prometheus label pair).
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// sortLabels returns a sorted copy of labels (stable series identity
// regardless of argument order).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// seriesKey renders sorted labels into a map key.
func seriesKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(0x1f)
		b.WriteString(l.Value)
		b.WriteByte(0x1e)
	}
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	labels []Label
	v      atomic.Int64
}

// Add increments the counter. No-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// funcMetric is a callback-backed series (counter or gauge kind),
// evaluated at exposition time. Used for values already maintained
// elsewhere (spool depth, route-cache hit counts, chaos fault counts).
type funcMetric struct {
	labels []Label
	fn     func() float64
}

// family groups every series sharing one metric name; all series of a
// family have the same kind ("counter", "gauge", "histogram").
type family struct {
	kind   string
	series map[string]any
}

// Registry holds named metric families and the trace recorder. The
// zero registry is not usable; call NewRegistry. A nil *Registry is a
// valid no-op sink: every method returns nil handles whose operations
// do nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	trace    *Trace
}

// DefaultTraceCapacity is the ring size of a registry's trace recorder.
const DefaultTraceCapacity = 2048

// NewRegistry returns an empty registry with a trace recorder attached.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		trace:    NewTrace(DefaultTraceCapacity),
	}
}

// Trace returns the registry's event recorder (nil on a nil registry).
func (r *Registry) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// lookup finds or creates the series for (name, labels) under kind.
// Creating a name under two different kinds is a programming error.
func (r *Registry) lookup(name, kind string, labels []Label, mk func(ls []Label) any) any {
	ls := sortLabels(labels)
	key := seriesKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{kind: kind, series: map[string]any{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk(ls)
	f.series[key] = m
	return m
}

// Counter returns the counter for (name, labels), creating it on first
// use. Handles are shared: every call with the same name and label set
// returns the same *Counter. Returns nil (a no-op handle) on a nil
// registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, "counter", labels, func(ls []Label) any { return &Counter{labels: ls} })
	return m.(*Counter)
}

// Histogram returns the histogram for (name, labels), creating it on
// first use. Buckets are the package-wide fixed log-scale bounds.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, "histogram", labels, func(ls []Label) any { return &Histogram{labels: ls} })
	return m.(*Histogram)
}

// GaugeFunc registers (or replaces) a callback-backed gauge series.
// The callback runs at exposition time and must be safe for concurrent
// use. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.registerFunc(name, "gauge", fn, labels)
}

// CounterFunc registers (or replaces) a callback-backed counter series
// for monotonic values maintained elsewhere (e.g. route-cache hits).
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	r.registerFunc(name, "counter", fn, labels)
}

func (r *Registry) registerFunc(name, kind string, fn func() float64, labels []Label) {
	if r == nil {
		return
	}
	ls := sortLabels(labels)
	key := seriesKey(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{kind: kind, series: map[string]any{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	// Replace: re-registration (e.g. a Driver re-run on the same
	// registry) rebinds the callback instead of erroring.
	f.series[key] = &funcMetric{labels: ls, fn: fn}
}
