package amigo

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
	"roamsim/internal/wire"
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

// TestTransportUnknownME: against a server nothing was ever scheduled
// for the ME on, a lease fails with ErrUnknownME after exactly one
// attempt, on both transports — a lease carrying vitals or a redelivery
// too, which keeps them pending, creates no ME and leases nothing. Upload
// cannot report it — the result spool is not keyed by the registry — so
// for it the test pins that both transports agree on success. Scheduling
// is what makes the ME known.
func TestTransportUnknownME(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, reg := NewServer(nil), obs.NewRegistry()
			ep := &Endpoint{Name: "ghost", Dep: world(t).Deployments["PAK"], Src: rng.New(5), Obs: reg, Retry: fastRetry}
			tr.bind(t, srv, ep)
			for _, op := range []struct {
				label string
				run   func()
			}{
				{"lease", func() {}},
				{"lease with vitals", ep.Heartbeat},
				{"redelivery lease", ep.Redeliver},
			} {
				op.run()
				if _, err := ep.Lease(4); !errors.Is(err, ErrUnknownME) {
					t.Errorf("%s by an unknown ME: %v, want ErrUnknownME", op.label, err)
				}
				if n := retries(reg, "lease"); n != 0 {
					t.Errorf("%s: unknown ME was retried %d times; it is permanent", op.label, n)
				}
				if mes := srv.MEs(); len(mes) != 0 {
					t.Fatalf("%s created MEs %v", op.label, mes)
				}
			}
			if err := ep.Upload([]Result{{TaskID: 1, ME: "ghost", Kind: "dns", Config: "esim", OK: true}}); err != nil {
				t.Errorf("upload by an unknown ME: %v", err)
			}
			if got := len(srv.Results()); got != 1 {
				t.Errorf("server holds %d results, want the 1 uploaded", got)
			}
			ids, err := srv.ScheduleBatch("ghost", make([]Task, 2))
			if err != nil {
				t.Fatal(err)
			}
			if ep.vitals.IsZero() || !ep.redeliver {
				t.Fatal("vitals or the redelivery dropped by a failed lease")
			}
			if tasks, err := ep.Lease(4); err != nil || !slices.Equal(leaseIDs(tasks), ids) {
				t.Errorf("lease once scheduled = %v, %v; want %v", leaseIDs(tasks), err, ids)
			}
			if _, ok := srv.Vitals("ghost"); !ok || !ep.vitals.IsZero() || ep.redeliver {
				t.Errorf("vitals or the redelivery not sent by the lease once scheduled")
			}
		})
	}
}

// TestServerMethodsWrapErrUnknownME: in-process callers get the sentinel
// from the registry methods themselves, not a string to match.
// (ScheduleBatch is not one of them: it creates the ME.)
func TestServerMethodsWrapErrUnknownME(t *testing.T) {
	srv := NewServer(nil)
	_, errLeaseAck := srv.LeaseAckInto("ghost", 1, 0, nil)
	_, errRequeue := srv.Requeue("ghost")
	for name, err := range map[string]error{
		"LeaseAckInto": errLeaseAck, "Requeue": errRequeue,
		"ReportVitals": srv.ReportVitals("ghost", Vitals{}),
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

// TestEndpointHTTPAllocs pins what the drain workloads' HTTP path costs
// per batch of 8 results over loopback HTTP, both ends and net/http
// included. "two-requests" is a lease, then an upload that carries no
// lease — what every batch cost before uploads carried leases: 147
// allocations, and 168 before requests went straight to the RoundTripper
// (amigo.Send) and the drain stopped allocating. The other rows are an
// Endpoint's Lease and Upload in steady state: one upload that carries
// the next lease, whose reply the Lease after it returns unasked — 84
// allocations without a registry, 85 with one. An upload whose lease
// carries vitals costs what a bare one costs: the row "vitals" must not
// count more than "bare". Not under -race: there sync.Pool drops entries
// at random and the count wanders by ±1.
func TestEndpointHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	var bare float64
	for _, tc := range []struct {
		name   string
		ahead  bool
		reg    *obs.Registry
		bound  float64
		vitals Vitals
	}{
		{"two-requests", false, nil, 147, Vitals{}},
		{"bare", true, nil, 84, Vitals{}},
		{"obs", true, obs.NewRegistry(), 85, Vitals{}},
		{"vitals", true, nil, 84, Vitals{Battery: 0.998, RSSI: -91.25, SNR: 3.5, CQI: 7, RAT: "5G", ActiveID: "esim"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 300
			srv, round := leaseUploadRounds(t, runs+1, tc.reg, tc.ahead)
			allocs := testing.AllocsPerRun(runs, func() { round(tc.vitals) })
			t.Logf("allocations per batch: %.0f (bound %.0f)", allocs, tc.bound)
			if allocs > tc.bound {
				t.Errorf("a batch's requests over HTTP allocate %.0f times, want <= %.0f", allocs, tc.bound)
			}
			switch tc.name {
			case "bare":
				bare = allocs
			case "vitals":
				if v, _ := srv.Vitals("me"); v != tc.vitals {
					t.Errorf("server holds vitals %+v, want %+v", v, tc.vitals)
				}
				if allocs > bare {
					t.Errorf("an upload whose lease carries vitals allocates %.0f times, a bare one %.0f", allocs, bare)
				}
			}
		})
	}
}

// leaseUploadRounds serves a Server on loopback and returns it with the
// round TestEndpointHTTPAllocs and the LeaseUpload benchmarks measure: 8
// tasks leased and a result uploaded for each, at most rounds times. With
// ahead it is an Endpoint's Lease, then its Upload reporting v, which
// carries the next lease; without, a lease reporting v and an upload
// carrying none, each one request through the Endpoint's HTTP Transport.
// The server's sink keeps nothing, so its share of a round does not grow
// with the log.
func leaseUploadRounds(tb testing.TB, rounds int, reg *obs.Registry, ahead bool) (*Server, func(v Vitals)) {
	const batch = 8
	srv := NewServer(nil, WithSink(writeOnlySink{}))
	if _, err := srv.ScheduleBatch("me", make([]Task, rounds*batch)); err != nil {
		tb.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)
	ep := &Endpoint{Name: "me", BaseURL: hs.URL, Client: hs.Client(), Obs: reg}
	tp, ctx, ack := (*httpTransport)(ep), context.Background(), 0
	results := make([]Result, 0, batch)
	payload := []byte(`{"resolver":"8.8.8.8"}`)
	return srv, func(v Vitals) {
		var leased []Task
		var err error
		if ahead {
			leased, err = ep.Lease(batch)
		} else {
			leased, _, err = tp.Lease(ctx, wire.LeaseRequest{ME: "me", Max: batch, Ack: ack, Vitals: v})
		}
		if err != nil || len(leased) != batch {
			tb.Fatalf("lease: %d tasks, %v", len(leased), err)
		}
		ack = leased[batch-1].ID
		results = results[:0]
		for _, task := range leased {
			results = append(results, Result{TaskID: task.ID, ME: "me", Kind: "dns", Config: "esim", OK: true, Payload: payload})
		}
		if ahead {
			ep.vitals = v
			err = ep.Upload(results)
		} else {
			_, _, err = tp.Upload(ctx, uploadKey("me", results), results, wire.LeaseRequest{})
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEndpointLeaseUpload: one lease and one upload of 8 results
// that carries no lease, over loopback HTTP per op, both ends and
// net/http included; with -benchmem, allocs/op is what two control-plane
// requests cost.
func BenchmarkEndpointLeaseUpload(b *testing.B) {
	_, round := leaseUploadRounds(b, b.N+1, nil, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(Vitals{})
	}
}

// BenchmarkEndpointUploadLease: an Endpoint's Lease and Upload of 8
// results per op, over loopback HTTP, both ends and net/http included: in
// steady state one request, the upload that carries the next lease, whose
// reply the next op's Lease returns unasked.
func BenchmarkEndpointUploadLease(b *testing.B) {
	_, round := leaseUploadRounds(b, b.N+1, nil, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(Vitals{})
	}
}

// TestEndpointWithoutRegistryBuildsNoMetrics: with Obs nil every metric
// handle is a nil no-op, so an Endpoint builds none of its handle maps —
// a fleet campaign makes a fresh Endpoint per ME incarnation.
func TestEndpointWithoutRegistryBuildsNoMetrics(t *testing.T) {
	eps := make([]Endpoint, 101)
	i := 0
	if n := testing.AllocsPerRun(100, func() { eps[i].metrics(); i++ }); n != 0 {
		t.Errorf("first metrics() of an Endpoint without a registry allocates %v times, want 0", n)
	}
	if m := eps[0].metrics(); m.requests != nil || m.exec != nil || m.connTrace != nil {
		t.Errorf("handles built without a registry: %+v", m)
	}
}

// TestDrainCloseReusesConnection: a response left with unread bytes is
// drained and its connection serves the next request, however many
// pooled-buffer reads the rest takes; one with more than 256 KiB left is
// abandoned, and the next request dials anew.
func TestDrainCloseReusesConnection(t *testing.T) {
	for _, tc := range []struct {
		left  int
		conns int64
	}{{0, 1}, {100 << 10, 1}, {256<<10 - 1, 1}, {1 << 20, 2}} {
		var dialed atomic.Int64
		hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(make([]byte, tc.left))
		}))
		hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				dialed.Add(1)
			}
		}
		hs.Start()
		u, err := Route(hs.URL, "/")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			resp, err := Send(context.Background(), hs.Client(), http.MethodGet, u, http.Header{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			DrainClose(resp)
		}
		hs.Close()
		if got := dialed.Load(); got != tc.conns {
			t.Errorf("two requests whose responses left %d bytes unread took %d connections, want %d", tc.left, got, tc.conns)
		}
	}
}

// TestSendReplaysKeyedBodyOnDeadConnection: a keep-alive connection the
// server drops after reading the next request, before answering, costs
// a keyed request nothing: net/http rewinds its body (GetBody) and sends
// it again on a fresh connection, so the caller sees one success.
func TestSendReplaysKeyedBodyOnDeadConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var bodies []string // the server goroutine's until done closes
	done := make(chan struct{})
	go func() {
		defer close(done)
		for served := 0; served < 2; {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(conn)
			for ; served < 2; served++ {
				req, err := http.ReadRequest(br)
				if err != nil {
					break
				}
				b, _ := io.ReadAll(req.Body)
				bodies = append(bodies, string(b))
				if served == 1 && len(bodies) == 2 {
					break // the second request dies on the first connection
				}
				conn.Write([]byte("HTTP/1.1 204 No Content\r\n\r\n"))
			}
			conn.Close()
		}
	}()
	u, err := Route("http://"+ln.Addr().String(), "/v3/results")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for _, body := range []string{"first", "second"} {
		h := http.Header{"Idempotency-Key": {body}}
		resp, err := Send(context.Background(), client, http.MethodPost, u, h, []byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		DrainClose(resp)
	}
	<-done
	if want := []string{"first", "second", "second"}; !slices.Equal(bodies, want) {
		t.Errorf("server read bodies %q, want %q", bodies, want)
	}
}
