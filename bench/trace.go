package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptrace"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's span recorder. Spans are recorded only from the
// benchmark's own wrappers around calls into each layer (ROADMAP item 4
// moves them inside internal/); they go to a preallocated buffer and
// are written out as Chrome trace-event JSON when the run ends.

// span is one timed interval at a layer boundary.
type span struct {
	name   string // "endpoint.lease", "http.conn_wait", "http.roundtrip", "shard.gateway", "amigo.handler", "fleet.run", ...
	route  string // request path; "" for spans that are not part of a request
	req    uint64 // shared by every span of one request; 0 = not a request
	parent int32  // index of the span that caused this one; -1 = none
	iter   int32  // traced iteration the span belongs to
	start  int64  // ns since tracer.epoch
	end    int64  // 0 until the span ends
}

func (s *span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer is nil in untraced runs; every method is a no-op on nil.
type tracer struct {
	epoch time.Time
	spans []span
	next  atomic.Int64
	reqs  atomic.Uint64
	iter  atomic.Int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its index, or -1 when tracing is off
// or the buffer is full (dropped() counts those).
func (t *tracer) begin(name, route string, req uint64, parent int32) int32 {
	if t == nil {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{name: name, route: route, req: req, parent: parent,
		iter: t.iter.Load(), start: int64(time.Since(t.epoch))}
	return int32(i)
}

// restart moves an open span's start to now.
func (t *tracer) restart(i int32) {
	if i >= 0 {
		t.spans[i].start = int64(time.Since(t.epoch))
	}
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.epoch))
	}
}

func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// recorded returns the spans that were opened and closed, and how many
// were dropped because the buffer was full.
func (t *tracer) recorded() (spans []span, dropped int) {
	n := t.next.Load()
	if over := n - int64(len(t.spans)); over > 0 {
		dropped, n = int(over), int64(len(t.spans))
	}
	return t.spans[:n], dropped
}

// spanRef is how the drain client hands its Endpoint span to the
// RoundTripper underneath it: through the request context, since
// amigo.Endpoint builds its requests from Endpoint.Ctx.
type spanRef struct {
	req uint64
	id  int32
}

type spanKey struct{}

func withSpanRef(ctx context.Context, ref *spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

// spanHeader carries "<request id>.<parent span>" from the client
// RoundTripper to the server-side wrappers, and from each wrapper to the
// next one in.
const spanHeader = "X-Bench-Span"

func formatSpanHeader(req uint64, id int32) string {
	return strconv.FormatUint(req, 10) + "." + strconv.Itoa(int(id))
}

func parseSpanHeader(v string) (req uint64, parent int32) {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return 0, -1
	}
	r, err1 := strconv.ParseUint(a, 10, 64)
	p, err2 := strconv.Atoi(b)
	if err1 != nil || err2 != nil {
		return 0, -1
	}
	return r, int32(p)
}

// Client-visible operations whose latency is an end-to-end metric.
const (
	opLease = iota
	opUpload
	opOther
)

func opOf(path string) int {
	switch path {
	case "/v3/tasks/lease":
		return opLease
	case "/v3/results":
		return opUpload
	}
	return opOther
}

// latencies collects client-side latency samples in µs. The slices are
// preallocated so steady-state recording does not allocate.
type latencies struct {
	mu      sync.Mutex
	samples [2][]float64 // indexed by opLease / opUpload; guarded by mu
}

func newLatencies() *latencies {
	l := &latencies{}
	for i := range l.samples {
		l.samples[i] = make([]float64, 0, 1<<19)
	}
	return l
}

func (l *latencies) add(op int, d time.Duration) {
	if l == nil || op == opOther {
		return
	}
	l.mu.Lock()
	l.samples[op] = append(l.samples[op], micros(d))
	l.mu.Unlock()
}

// reset drops the samples taken so far.
func (l *latencies) reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	for i := range l.samples {
		l.samples[i] = l.samples[i][:0]
	}
	l.mu.Unlock()
}

func (l *latencies) of(op int) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.samples[op]
}

// clientTransport is the benchmark's http.RoundTripper wrapper. In the
// campaign workloads it is the only client-side seam fleet.Driver
// offers, so it times lease and upload round trips there (lat); in
// traced runs it also records the http.roundtrip span and passes the
// span on to the server in a header.
type clientTransport struct {
	base http.RoundTripper
	tr   *tracer
	lat  *latencies
}

func (c *clientTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if c.tr == nil {
		start := time.Now()
		resp, err := c.base.RoundTrip(r)
		c.lat.add(opOf(r.URL.Path), time.Since(start))
		return resp, err
	}
	ref, _ := r.Context().Value(spanKey{}).(*spanRef)
	if ref == nil {
		ref = &spanRef{req: c.tr.newReq(), id: -1}
	}
	// Until the transport hands over a connection the request is only
	// queueing for one of the nproc allowed (campaign_virtual_chaos has a
	// thousand MEs doing so): that is http.conn_wait, and http.roundtrip
	// starts when it ends.
	wait := c.tr.begin("http.conn_wait", r.URL.Path, ref.req, ref.id)
	id := c.tr.begin("http.roundtrip", r.URL.Path, ref.req, ref.id)
	ctx := httptrace.WithClientTrace(r.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) {
			c.tr.end(wait)
			c.tr.restart(id)
		},
	})
	// A RoundTripper must not modify the caller's request.
	r = r.Clone(ctx)
	r.Header.Set(spanHeader, formatSpanHeader(ref.req, id))
	start := time.Now()
	resp, err := c.base.RoundTrip(r)
	c.lat.add(opOf(r.URL.Path), time.Since(start))
	c.tr.end(id)
	return resp, err
}

// spanHandler records one server-side span around next and makes itself
// the parent of whatever wrapper sits further in.
type spanHandler struct {
	name string
	next http.Handler
	tr   *tracer
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, parent := parseSpanHeader(r.Header.Get(spanHeader))
	id := h.tr.begin(h.name, r.URL.Path, req, parent)
	if id >= 0 {
		r.Header.Set(spanHeader, formatSpanHeader(req, id))
	}
	h.next.ServeHTTP(w, r)
	h.tr.end(id)
}

// spanView is the recorded spans with each span's self time: its
// duration minus the part its child spans cover. A request's spans nest
// and its children run one after another, so the children's durations
// simply add.
type spanView struct {
	spans []span
	self  []time.Duration
}

func (t *tracer) view() (spanView, int) {
	spans, dropped := t.recorded()
	v := spanView{spans: spans, self: make([]time.Duration, len(spans))}
	for i := range spans {
		if spans[i].end != 0 {
			v.self[i] = spans[i].dur()
		}
	}
	for i := range spans {
		if p := spans[i].parent; p >= 0 && int(p) < len(spans) && spans[i].end != 0 {
			v.self[p] -= spans[i].dur()
		}
	}
	return v, dropped
}

// pick returns, in µs, the duration (or self time) of every finished
// span that match accepts.
func (v spanView) pick(self bool, match func(*span) bool) []float64 {
	var out []float64
	for i := range v.spans {
		s := &v.spans[i]
		if s.end == 0 || !match(s) {
			continue
		}
		d := s.dur()
		if self {
			d = v.self[i]
		}
		out = append(out, micros(d))
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func named(name string) func(*span) bool {
	return func(s *span) bool { return s.name == name }
}

func namedRoute(name, route string) func(*span) bool {
	return func(s *span) bool { return s.name == name && s.route == route }
}

// writeChrome writes the spans of the last traced iteration as Chrome
// trace-event JSON (load it in chrome://tracing or ui.perfetto.dev).
// Each request gets its own row (tid = request id) so its spans nest;
// args.id and args.parent give the exact causal links.
func (v spanView) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	last := int32(0)
	for i := range v.spans {
		last = max(last, v.spans[i].iter)
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for i := range v.spans {
		s := &v.spans[i]
		if s.end == 0 || s.iter != last {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"route":%q,"self_us":%.3f}}`,
			s.name, strings.SplitN(s.name, ".", 2)[0], s.req, float64(s.start)/1e3, micros(s.dur()),
			i, s.parent, s.route, micros(v.self[i]))
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
