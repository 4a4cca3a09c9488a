package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety pins the no-op contract: every operation on a nil
// registry, nil handle, or nil trace must be safe — instrumented code
// carries no "is observability enabled" branches.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(1)
	r.Counter("c").Inc()
	r.Histogram("h").Observe(1.5)
	r.GaugeFunc("gf", func() float64 { return 1 })
	r.CounterFunc("cf", func() float64 { return 1 })
	r.Trace().Record("ev", L("k", "v"))
	if got := r.Trace().Last(10); got != nil {
		t.Errorf("nil trace Last = %v, want nil", got)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if got := r.Histogram("h").Snapshot(); got.Count != 0 {
		t.Errorf("nil histogram snapshot = %+v", got)
	}
}

// TestHandleIdentity verifies that repeated lookups return the same
// series and that label order does not matter.
func TestHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("same labels in different order produced distinct series")
	}
	if c := r.Counter("x_total", L("a", "1")); c == a {
		t.Fatal("different label sets shared a series")
	}
}

// TestConcurrentHammering pounds one counter and one histogram from
// many goroutines; run under -race this doubles as the data-race proof
// for the lock-sharded histogram.
func TestConcurrentHammering(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 5000
	c := r.Counter("hammer_total")
	h := r.Histogram("hammer_ms")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Add(1)
				h.Observe(float64(j%100) + 0.5)
				// Exercise concurrent handle lookups too.
				r.Counter("hammer_labeled_total", L("g", fmt.Sprint(id%4))).Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketSum uint64
	for _, b := range s.Buckets {
		bucketSum += b
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	var labeled int64
	for i := 0; i < 4; i++ {
		labeled += r.Counter("hammer_labeled_total", L("g", fmt.Sprint(i))).Value()
	}
	if labeled != goroutines*perG {
		t.Errorf("labeled counters sum = %d, want %d", labeled, goroutines*perG)
	}
}

// TestHistogramBuckets pins the fixed log-scale bucket layout and the
// placement of boundary values.
func TestHistogramBuckets(t *testing.T) {
	bounds := BucketBounds()
	if len(bounds) != histBuckets || bounds[0] != 0.001 || bounds[1] != 0.002 {
		t.Fatalf("unexpected bounds: %v", bounds[:2])
	}
	r := NewRegistry()
	h := r.Histogram("hb_ms")
	h.Observe(0)               // below the first bound -> bucket 0
	h.Observe(0.001)           // exactly the first bound -> bucket 0 (le semantics)
	h.Observe(0.0011)          // just above -> bucket 1
	h.Observe(math.MaxFloat64) // beyond every bound -> +Inf bucket
	s := h.Snapshot()
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[histBuckets] != 1 {
		t.Errorf("bucket placement: %v", s.Buckets)
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
}

// TestPrometheusGolden pins the full exposition output for a registry
// with one of every metric kind: family and series ordering, TYPE
// lines, label rendering, and the cumulative histogram encoding.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(3)
	r.Counter("aa_total", L("op", "lease")).Add(2)
	r.Counter("aa_total", L("op", `qu"ote`)).Add(1)
	r.GaugeFunc("spool", func() float64 { return 1.5 })
	h := r.Histogram("dur_ms", L("route", "/v3/tasks/lease"))
	h.Observe(0.0005)
	h.Observe(0.01)
	h.Observe(1e12)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}

	var want strings.Builder
	want.WriteString("# TYPE aa_total counter\n")
	want.WriteString("aa_total{op=\"lease\"} 2\n")
	want.WriteString("aa_total{op=\"qu\\\"ote\"} 1\n")
	want.WriteString("# TYPE dur_ms histogram\n")
	cum := 0
	for i, bound := range BucketBounds() {
		switch {
		case i == 0, i == 4: // 0.0005 <= 0.001; 0.01 <= 0.016
			cum++
		}
		fmt.Fprintf(&want, "dur_ms_bucket{route=\"/v3/tasks/lease\",le=\"%s\"} %d\n", formatValue(bound), cum)
	}
	want.WriteString("dur_ms_bucket{route=\"/v3/tasks/lease\",le=\"+Inf\"} 3\n")
	fmt.Fprintf(&want, "dur_ms_sum{route=\"/v3/tasks/lease\"} %s\n", formatValue(0.0005+0.01+1e12))
	want.WriteString("dur_ms_count{route=\"/v3/tasks/lease\"} 3\n")
	want.WriteString("# TYPE spool gauge\nspool 1.5\n")
	want.WriteString("# TYPE zz_total counter\nzz_total 3\n")

	if b.String() != want.String() {
		t.Errorf("exposition mismatch:\n--- got\n%s\n--- want\n%s", b.String(), want.String())
	}
}

// TestTraceRingWraparound fills a small ring past capacity and checks
// that only the newest events survive, in order, with continuous
// sequence numbers.
func TestTraceRingWraparound(t *testing.T) {
	tr := NewTrace(4)
	for i := 1; i <= 10; i++ {
		tr.Record(fmt.Sprintf("ev-%d", i), L("i", fmt.Sprint(i)))
	}
	events := tr.Last(10)
	if len(events) != 4 {
		t.Fatalf("Last(10) = %d events, want 4", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq || e.Name != fmt.Sprintf("ev-%d", wantSeq) {
			t.Errorf("event %d = seq %d name %s, want seq %d", i, e.Seq, e.Name, wantSeq)
		}
	}
	if last2 := tr.Last(2); len(last2) != 2 || last2[1].Seq != 10 {
		t.Errorf("Last(2) = %+v", last2)
	}
	tr2 := NewTrace(8)
	tr2.Record("attrs", L("op", "x"))
	if e := tr2.Last(1)[0]; e.Attrs["op"] != "x" {
		t.Errorf("event with attrs = %+v", e)
	}
}

// TestConcurrentTrace hammers the ring recorder from many goroutines
// (a -race check) and verifies retained events stay well-formed.
func TestConcurrentTrace(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.Record("ev")
				tr.Last(8)
			}
		}()
	}
	wg.Wait()
	events := tr.Last(64)
	if len(events) != 64 {
		t.Fatalf("retained %d events, want 64", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

// TestHandlers exercises the HTTP surface: the metrics handler must
// serve the text exposition with the right content type, the trace
// handler valid JSON; both must tolerate a nil registry.
func TestHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total").Add(1)
	r.Trace().Record("boot")

	rec := httptest.NewRecorder()
	r.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/admin/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("metrics body missing series:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/admin/trace?n=5", nil))
	if !strings.Contains(rec.Body.String(), `"name":"boot"`) {
		t.Errorf("trace body = %s", rec.Body.String())
	}

	var nilReg *Registry
	rec = httptest.NewRecorder()
	nilReg.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/admin/metrics", nil))
	if rec.Code != 200 {
		t.Errorf("nil metrics handler code = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	nilReg.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/admin/trace", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"events":[]`) {
		t.Errorf("nil trace handler: code %d body %s", rec.Code, rec.Body.String())
	}
}
