package amigo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
)

// transports is the differential table: everything above the Transport
// seam — retries, backoff, give-up, idempotency, the unknown-ME contract
// — must behave the same whichever implementation bind puts under ep.
var transports = []struct {
	name string
	bind func(t *testing.T, srv *Server, ep *Endpoint)
}{
	{"http", bindHTTP},
	{"direct", func(_ *testing.T, srv *Server, ep *Endpoint) {
		ep.Transport = DirectTransport{Server: srv}
	}},
}

// bindHTTP serves srv on loopback and leaves ep on its default transport.
func bindHTTP(t *testing.T, srv *Server, ep *Endpoint) {
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ep.BaseURL, ep.Client = hs.URL, hs.Client()
}

// fastRetry keeps real-clock retry tests short.
var fastRetry = Backoff{MaxAttempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond}

func retries(reg *obs.Registry, op string) int64 {
	return reg.Counter("amigo_endpoint_retries_total", obs.L("op", op)).Value()
}

// TestTransportUnknownME: against a server that has never heard of the
// ME, every operation that consults the registry fails with ErrUnknownME
// after exactly one attempt, on both transports. Register and Upload
// cannot report it — registering is what makes an ME known, and the
// result spool is not keyed by the registry — so for those the test pins
// that both transports agree on success.
func TestTransportUnknownME(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, reg := NewServer(nil), obs.NewRegistry()
			ep := &Endpoint{Name: "ghost", Dep: world(t).Deployments["PAK"], Src: rng.New(5), Obs: reg, Retry: fastRetry}
			tr.bind(t, srv, ep)
			for _, op := range []struct {
				label string
				run   func() error
			}{
				{"/v1/status", ep.Heartbeat},
				{"lease", func() error { _, err := ep.Lease(4); return err }},
				{"/v2/tasks/requeue", ep.Redeliver},
			} {
				if err := op.run(); !errors.Is(err, ErrUnknownME) {
					t.Errorf("%s by an unregistered ME: %v, want ErrUnknownME", op.label, err)
				}
				if n := retries(reg, op.label); n != 0 {
					t.Errorf("%s: unknown ME was retried %d times; it is permanent", op.label, n)
				}
			}
			if err := ep.Upload([]Result{{TaskID: 1, ME: "ghost", Kind: "dns", Config: "esim", OK: true}}); err != nil {
				t.Errorf("upload by an unregistered ME: %v", err)
			}
			if got := len(srv.Results()); got != 1 {
				t.Errorf("server holds %d results, want the 1 uploaded", got)
			}
			if err := ep.Register(); err != nil {
				t.Fatal(err)
			}
			if err := ep.Heartbeat(); err != nil {
				t.Errorf("heartbeat once registered: %v", err)
			}
		})
	}
}

// TestServerMethodsWrapErrUnknownME: in-process callers get the sentinel
// from the registry methods themselves, not a string to match.
func TestServerMethodsWrapErrUnknownME(t *testing.T) {
	srv := NewServer(nil)
	_, errSchedule := srv.ScheduleBatch("ghost", []Task{{Kind: "dns"}})
	_, errLeaseAck := srv.LeaseAckInto("ghost", 1, 0, nil)
	_, errRequeue := srv.Requeue("ghost")
	for name, err := range map[string]error{
		"ScheduleBatch": errSchedule, "LeaseAckInto": errLeaseAck,
		"Requeue": errRequeue, "ReportVitals": srv.ReportVitals("ghost", Vitals{}),
	} {
		if !errors.Is(err, ErrUnknownME) || !strings.Contains(err.Error(), `"ghost"`) {
			t.Errorf("%s(unknown ME) = %v, want ErrUnknownME naming the ME", name, err)
		}
	}
}

// stallSpool returns a server whose spool (capacity 1) is full behind a
// sink that will not take another batch until release is called: one
// submitter is parked inside the sink, a second has spooled its batch
// and waits to drain. release lets both through and waits for them.
func stallSpool(t *testing.T, opts ...Option) (srv *Server, sink *gateSink, release func()) {
	t.Helper()
	sink = &gateSink{entered: make(chan struct{}), gate: make(chan struct{}), inner: NewMemorySink()}
	srv = NewServer(nil, append([]Option{WithSink(sink), WithSpoolCapacity(1)}, opts...)...)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // stalls in the sink
		defer wg.Done()
		srv.Submit([]Result{{ME: "x", OK: true}})
	}()
	<-sink.entered
	go func() { // fills the spool
		defer wg.Done()
		srv.Submit([]Result{{ME: "y", OK: true}})
	}()
	waitFor(t, func() bool { return srv.SpoolDepth() == 1 })
	var once sync.Once
	release = func() {
		once.Do(func() { close(sink.gate) })
		wg.Wait()
	}
	t.Cleanup(release)
	return srv, sink, release
}

var oneResult = []Result{{TaskID: 1, ME: "me", Kind: "dns", Config: "esim", OK: true}}

// TestUploadGivesUpOnFullSpool: against a spool that never drains,
// Upload stops after MaxAttempts with the same error shape on both
// transports, and the batch never reaches the sink.
func TestUploadGivesUpOnFullSpool(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, sink, release := stallSpool(t, WithRetryAfter(0))
			reg := obs.NewRegistry()
			ep := &Endpoint{Name: "me", Obs: reg, Retry: fastRetry}
			tr.bind(t, srv, ep)
			err := ep.Upload(oneResult)
			if err == nil || !strings.HasPrefix(err.Error(), "amigo: results: giving up after 3 attempts: ") {
				t.Fatalf("upload into an always-full spool: %v, want the attempt-budget failure", err)
			}
			if errors.Is(err, ErrUnknownME) {
				t.Errorf("backpressure reported as an unknown ME: %v", err)
			}
			if _, direct := ep.Transport.(DirectTransport); direct && !errors.Is(err, ErrSpoolFull) {
				t.Errorf("direct give-up does not wrap ErrSpoolFull: %v", err)
			}
			giveups := reg.Counter("amigo_endpoint_retry_giveups_total", obs.L("op", "results")).Value()
			if n := retries(reg, "results"); n != 2 || giveups != 1 {
				t.Errorf("retries = %d, give-ups = %d, want 2 and 1", n, giveups)
			}
			release()
			if got := sink.inner.Len(); got != 2 {
				t.Errorf("sink holds %d results, want the 2 that filled it: a shed batch must not land", got)
			}
		})
	}
}

// TestBackpressureHintParity: the wait a full spool asks for is the same
// over both transports — the configured Retry-After rounded up to whole
// seconds, because that is all the header can carry — and the backoff
// policy treats it the same: no hint falls back to the exponential
// schedule, a hint above Backoff.Max is clamped to it. The virtual clock
// makes the sleeps exact: (MaxAttempts-1) of them, nothing else.
func TestBackpressureHintParity(t *testing.T) {
	policy := Backoff{MaxAttempts: 3, Base: 100 * time.Millisecond, Max: 5 * time.Second}
	for _, tc := range []struct {
		name       string
		retryAfter time.Duration
		want       time.Duration // two sleeps
	}{
		{"no-hint", 0, 100*time.Millisecond + 200*time.Millisecond},
		{"rounded-up", 1200 * time.Millisecond, 2 * 2 * time.Second},
		{"clamped", 10 * time.Second, 2 * 5 * time.Second},
	} {
		for _, tr := range transports {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				srv, _, _ := stallSpool(t, WithRetryAfter(tc.retryAfter))
				v := vclock.NewVirtual()
				ep := &Endpoint{Name: "me", Clock: v, Retry: policy}
				tr.bind(t, srv, ep)
				errs := make(chan error, 1)
				v.Go(func() { errs <- ep.Upload(oneResult) })
				if err := <-errs; err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
					t.Fatalf("upload into an always-full spool: %v", err)
				}
				if got := v.Now().Duration(); got != tc.want {
					t.Errorf("slept %v between attempts, want exactly %v", got, tc.want)
				}
			})
		}
	}
}

// TestUploadResendIsDeduped: a batch the server accepted is dropped as a
// duplicate when the ME sends it again (a retry after a lost response, a
// crash replay) — same key, same counter, under both transports.
func TestUploadResendIsDeduped(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := NewServer(nil, WithObs(reg))
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			tr.bind(t, srv, ep)
			for i := 0; i < 2; i++ {
				if err := ep.Upload(oneResult); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(srv.Results()); got != 1 {
				t.Errorf("server holds %d results after a resend, want 1", got)
			}
			if got := reg.Counter("amigo_server_dedup_dropped_batches_total").Value(); got != 1 {
				t.Errorf("dedup-dropped batches = %d, want 1", got)
			}
		})
	}
}

// TestJSONBodiesMatchMapMarshal: the JSON control bodies are structs with
// their fields in sorted key order, byte for byte what json.Marshal made
// of the maps they replaced — chaos truncation offsets depend on the
// bytes. The ME name carries characters json.Marshal escapes.
func TestJSONBodiesMatchMapMarshal(t *testing.T) {
	var mu sync.Mutex
	bodies := map[string][]byte{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies[r.URL.Path] = b
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hs.Close()
	const me = "me-<&>\"é\u2028"
	v := Vitals{Battery: 0.998, RSSI: -91.25, SNR: 3.5, CQI: 7, RAT: "5G", ActiveID: "esim"}
	tr := &httpTransport{BaseURL: hs.URL, Client: hs.Client()}
	ctx := context.Background()
	for _, err := range []error{tr.Register(ctx, me, "PAK"), tr.Heartbeat(ctx, me, v), tr.Requeue(ctx, me)} {
		if err != nil {
			t.Fatal(err)
		}
	}

	srv := NewServer(nil)
	srv.Register(me, "PAK")
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	req, _ := json.Marshal(map[string]any{"me": me, "kind": "dns", "count": 3})
	resp, err := admin.Client().Post(admin.URL+"/admin/schedule", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	scheduled, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, tc := range []struct {
		name string
		got  []byte
		old  any
	}{
		{"register", bodies["/v1/register"], map[string]string{"me": me, "country": "PAK"}},
		{"heartbeat", bodies["/v1/status"], map[string]any{"me": me, "vitals": v}},
		{"requeue", bodies["/v2/tasks/requeue"], map[string]string{"me": me}},
		{"schedule response", bytes.TrimSuffix(scheduled, []byte("\n")), map[string]any{"task_ids": []int{1, 2, 3}}},
	} {
		want, err := json.Marshal(tc.old)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s body = %s, want the map's %s", tc.name, tc.got, want)
		}
	}
}

// TestEndpointHTTPAllocs pins what the drain workloads' HTTP path costs:
// one Lease + one Upload of 8 results over loopback HTTP, both ends and
// net/http included, allocates no more than it did before the Transport
// seam went in under Endpoint. The bounds were measured at the parent
// commit b342c6f (170 without a registry, 172 with one); this tree
// measures one fewer, the same in 30 runs of 30. Not under -race: there
// sync.Pool drops entries at random and the count wanders by ±1.
func TestEndpointHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	for _, tc := range []struct {
		name  string
		reg   *obs.Registry
		bound float64
	}{
		{"bare", nil, 170},
		{"obs", obs.NewRegistry(), 172},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs, batch = 300, 8
			// A sink that keeps nothing: the server's share of the count
			// must not grow with the log.
			srv := NewServer(nil, WithSink(writeOnlySink{}))
			srv.Register("me", "PAK")
			if _, err := srv.ScheduleBatch("me", make([]Task, (runs+1)*batch)); err != nil {
				t.Fatal(err)
			}
			ep := &Endpoint{Name: "me", Obs: tc.reg}
			bindHTTP(t, srv, ep)
			results := make([]Result, 0, batch)
			payload := []byte(`{"resolver":"8.8.8.8"}`)
			allocs := testing.AllocsPerRun(runs, func() {
				leased, err := ep.Lease(batch)
				if err != nil || len(leased) != batch {
					t.Fatalf("lease: %d tasks, %v", len(leased), err)
				}
				results = results[:0]
				for _, task := range leased {
					results = append(results, Result{TaskID: task.ID, ME: "me", Kind: "dns", Config: "esim", OK: true, Payload: payload})
				}
				if err := ep.Upload(results); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("allocations per lease+upload: %.0f (bound %.0f)", allocs, tc.bound)
			if allocs > tc.bound {
				t.Errorf("lease+upload over HTTP allocates %.0f times, want <= %.0f (the parent commit)", allocs, tc.bound)
			}
		})
	}
}
