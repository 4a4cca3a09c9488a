package amigo

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/wire"
)

// leaseIDs is the task IDs of a lease, in order.
func leaseIDs(tasks []Task) []int {
	ids := make([]int, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	return ids
}

// TestLeaseShortOnlyWhenDrained pins the server's lease contract, probed
// through the Transport (Endpoint.Lease skips a lease on purpose): a lease
// returns the first max of the ME's pending tasks — every scheduled ID
// above the ack cursor, re-sent and fresh alike — so fewer than max come
// back only when that is all of them, and it is drained exactly when it
// reaches the end of them. A seeded walk schedules, leases with varying
// max, and loses lease responses (the client keeps its old ack), on both
// transports.
func TestLeaseShortOnlyWhenDrained(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := NewServer(nil, WithObs(reg))
			ep := &Endpoint{Name: "me"}
			tr.bind(t, srv, ep)
			tp := ep.Transport
			if tp == nil {
				tp = (*httpTransport)(ep)
			}
			var scheduled []int // every ID scheduled, ascending
			schedule := func(n int) {
				ids, err := srv.ScheduleBatch("me", make([]Task, n))
				if err != nil {
					t.Fatal(err)
				}
				scheduled = append(scheduled, ids...)
			}
			ack := 0
			lease := func(max int, lost bool) []int {
				t.Helper()
				tasks, drained, err := tp.Lease(context.Background(), wire.LeaseRequest{ME: "me", Max: max, Ack: ack})
				if err != nil {
					t.Fatal(err)
				}
				first, _ := slices.BinarySearch(scheduled, ack+1)
				pending := scheduled[first:]
				got, want := leaseIDs(tasks), pending[:min(max, len(pending))]
				if !slices.Equal(got, want) {
					t.Fatalf("lease(max %d, ack %d) = %v, want the first max of pending %v", max, ack, got, pending)
				}
				if len(got) < max && len(got) != len(pending) {
					t.Fatalf("lease(max %d) was short (%d) with %d tasks pending", max, len(got), len(pending))
				}
				if drained != (len(got) == len(pending)) {
					t.Fatalf("lease(max %d, ack %d) of %d pending: drained %v with %d tasks", max, ack, len(pending), drained, len(got))
				}
				if n := len(got); n > 0 && !lost {
					ack = got[n-1]
				}
				return got
			}

			// The case the contract was made for: a lost response of 4, then
			// a retry asking for 8 gets the 4 re-sent and 4 fresh — not a
			// short lease of 4 while 6 more wait in the queue.
			schedule(10)
			lease(4, true)
			if got := lease(8, false); !slices.Equal(got, scheduled[:8]) {
				t.Fatalf("retry after a lost lease = %v, want %v", got, scheduled[:8])
			}
			redelivered := reg.Counter("amigo_server_redelivered_tasks_total").Value()
			leased := reg.Counter("amigo_server_leased_tasks_total").Value()
			if redelivered != 4 || leased != 8 {
				t.Errorf("redelivered %d, leased %d; want 4 re-sent and 8 fresh in all", redelivered, leased)
			}

			src := rng.New(28)
			for step := 0; step < 400; step++ {
				if src.Intn(4) == 0 {
					schedule(src.Intn(6))
					continue
				}
				lease(1+src.Intn(10), src.Intn(3) == 0)
			}
		})
	}
}

// countingTransport counts the lease and upload attempts that reach the
// Transport under an Endpoint, and the uploads among them that carried a
// lease.
type countingTransport struct {
	Transport
	leases, uploads, carried int
}

func (c *countingTransport) Lease(ctx context.Context, req wire.LeaseRequest) ([]Task, bool, error) {
	c.leases++
	return c.Transport.Lease(ctx, req)
}

func (c *countingTransport) Upload(ctx context.Context, key string, results []Result, next wire.LeaseRequest) ([]Task, bool, error) {
	c.uploads++
	if next.ME != "" {
		c.carried++
	}
	return c.Transport.Upload(ctx, key, results, next)
}

// countRequests binds ep to srv over tr and counts its leases and uploads.
func countRequests(t *testing.T, tr func(*testing.T, *Server, *Endpoint), srv *Server, ep *Endpoint) *countingTransport {
	tr(t, srv, ep)
	inner := ep.Transport
	if inner == nil {
		inner = (*httpTransport)(ep)
	}
	ct := &countingTransport{Transport: inner}
	ep.Transport = ct
	return ct
}

// TestRunBatchSkipsConfirmingLease: once RunBatch has uploaded the lease
// the server marked drained, the next call reports the queue drained
// without a request, and the call after that leases again — also when the
// drained lease was full (max tasks, with max clamped to maxLeaseBatch).
// The upload of a batch that was not drained carries the next lease, so a
// second batch costs no lease request. Redeliver forgets the drained mark
// along with the ack cursor.
func TestRunBatchSkipsConfirmingLease(t *testing.T) {
	for _, tc := range []struct {
		name         string
		queued, max  int
		wantN        []int // per RunBatch call
		wantLeases   []int // leases made so far, after each call
		wantUploads  int
		wantCarried  int // uploads that carried a lease
		wantHTTPPath int // /v3/tasks/lease requests counted by the HTTP endpoint
	}{
		{"short", 18, 32, []int{18, 0, 0}, []int{1, 1, 2}, 1, 0, 2},
		{"full", 64, 32, []int{32, 32, 0}, []int{1, 1, 1}, 2, 1, 1},
		{"full-then-short", 40, 32, []int{32, 8, 0, 0}, []int{1, 1, 1, 2}, 2, 1, 2},
		{"clamped", maxLeaseBatch, 5000, []int{maxLeaseBatch, 0, 0}, []int{1, 1, 2}, 1, 0, 2},
	} {
		for _, tr := range transports {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				srv, reg := NewServer(nil), obs.NewRegistry()
				// Tasks without a config fail at attach: a result with no
				// measurement behind it, which is all this test needs.
				ep := &Endpoint{Name: "me", Obs: reg, Retry: fastRetry}
				ct := countRequests(t, tr.bind, srv, ep)
				if _, err := srv.ScheduleBatch("me", make([]Task, tc.queued)); err != nil {
					t.Fatal(err)
				}
				for i, want := range tc.wantN {
					n, err := ep.RunBatch(tc.max)
					if err != nil {
						t.Fatal(err)
					}
					if n != want || ct.leases != tc.wantLeases[i] {
						t.Fatalf("call %d: RunBatch = %d after %d leases, want %d after %d", i+1, n, ct.leases, want, tc.wantLeases[i])
					}
				}
				if ct.uploads != tc.wantUploads || ct.carried != tc.wantCarried || len(srv.Results()) != tc.queued {
					t.Errorf("%d uploads, %d carrying a lease, %d results; want %d, %d and %d",
						ct.uploads, ct.carried, len(srv.Results()), tc.wantUploads, tc.wantCarried, tc.queued)
				}
				if tr.name == "http" {
					if got := reg.Counter("amigo_endpoint_requests_total", obs.L("path", "/v3/tasks/lease")).Value(); got != int64(tc.wantHTTPPath) {
						t.Errorf("amigo_endpoint_requests_total{path=/v3/tasks/lease} = %d, want %d", got, tc.wantHTTPPath)
					}
				}
			})
		}
	}
	for _, tr := range transports {
		t.Run("redeliver/"+tr.name, func(t *testing.T) {
			srv := NewServer(nil)
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			ct := countRequests(t, tr.bind, srv, ep)
			if _, err := srv.ScheduleBatch("me", make([]Task, 18)); err != nil {
				t.Fatal(err)
			}
			if n, err := ep.RunBatch(32); n != 18 || err != nil {
				t.Fatalf("RunBatch = %d, %v", n, err)
			}
			ep.Redeliver()
			if n, err := ep.RunBatch(32); n != 18 || err != nil || ct.leases != 2 {
				t.Fatalf("RunBatch after Redeliver = %d, %v after %d leases; want the 18 re-leased", n, err, ct.leases)
			}
			if n, err := ep.RunBatch(32); n != 0 || err != nil || ct.leases != 2 {
				t.Fatalf("RunBatch after the re-leased short batch = %d, %v after %d leases; want 0 unasked", n, err, ct.leases)
			}
		})
	}
}

// TestEndpointLeaseSkipsConfirmingLease: a Lease→Upload loop over 64
// tasks at 32 makes one lease request — the first upload carries the
// second lease, whose reply is marked drained, so the Lease after it
// answers none unasked. The call after that asks, and sees work scheduled
// meanwhile; pending vitals or a Redeliver always ask.
func TestEndpointLeaseSkipsConfirmingLease(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, reg := NewServer(nil), obs.NewRegistry()
			ep := &Endpoint{Name: "me", Obs: reg, Retry: fastRetry}
			ct := countRequests(t, tr.bind, srv, ep)
			schedule := func(n int) []int {
				t.Helper()
				ids, err := srv.ScheduleBatch("me", make([]Task, n))
				if err != nil {
					t.Fatal(err)
				}
				return ids
			}
			lease := func(wantLeases int) []int {
				t.Helper()
				tasks, err := ep.Lease(32)
				if err != nil || ct.leases != wantLeases {
					t.Fatalf("Lease = %d tasks, %v after %d leases; want %d leases", len(tasks), err, ct.leases, wantLeases)
				}
				return leaseIDs(tasks)
			}

			all := schedule(64)
			var leased []int
			for {
				ids := lease(1)
				if len(ids) == 0 {
					break
				}
				leased = append(leased, ids...)
				results := make([]Result, len(ids))
				for i, id := range ids {
					results[i] = Result{TaskID: id, ME: "me", Kind: "dns", Config: "esim"}
				}
				if err := ep.Upload(results); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(leased, all) || ct.uploads != 2 || ct.carried != 1 {
				t.Fatalf("leased %v in %d uploads, %d carrying a lease; want the 64 scheduled in 2, the first carrying one", leased, ct.uploads, ct.carried)
			}
			if tr.name == "http" {
				if got := reg.Counter("amigo_endpoint_requests_total", obs.L("path", "/v3/tasks/lease")).Value(); got != 1 {
					t.Errorf("amigo_endpoint_requests_total{path=/v3/tasks/lease} = %d, want 1", got)
				}
			}

			more := schedule(3)
			if got := lease(2); !slices.Equal(got, more) {
				t.Fatalf("the lease after the skipped one = %v, want the newly scheduled %v", got, more)
			}
			ep.vitals = Vitals{CQI: 7, RAT: "5G"}
			if got := lease(3); len(got) != 0 {
				t.Fatalf("drained lease with vitals pending = %v, want none", got)
			}
			if v, _ := srv.Vitals("me"); v.CQI != 7 {
				t.Fatalf("server vitals %+v, want the pending ones reported", v)
			}
			last := schedule(2)
			if got := lease(4); !slices.Equal(got, last) {
				t.Fatalf("lease = %v, want %v", got, last)
			}
			ep.Redeliver()
			if got := lease(5); !slices.Equal(got, all[:32]) {
				t.Fatalf("drained lease with a Redeliver pending = %v, want the schedule from its start %v", got, all[:32])
			}
		})
	}
}

// TestRunBatchBehindLowerClamp: a proxy in front of the server lowers each
// lease's Max to 5 — the lease an upload carries too — as a server with a
// lower clamp would. Leases of 5 for an ME asking 32 are not its last —
// the server says which one is — so RunBatch(32) runs all 20 queued tasks
// before it returns 0.
func TestRunBatchBehindLowerClamp(t *testing.T) {
	srv := NewServer(nil)
	if _, err := srv.ScheduleBatch("me", make([]Task, 20)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, payload, err := wire.ReadFrame(r.Body, nil)
		if err != nil {
			http.Error(w, "bad frame", http.StatusBadRequest)
			return
		}
		var body []byte
		dec := wire.NewDecoder()
		if r.URL.Path == "/v3/tasks/lease" {
			var req wire.LeaseRequest
			if req, err = dec.LeaseRequest(payload); err == nil {
				req.Max = min(req.Max, 5)
				body = wire.AppendLeaseRequest(nil, req)
			}
		} else {
			var results []Result
			var next wire.LeaseRequest
			if results, next, err = dec.Upload(payload, nil); err == nil {
				next.Max = min(next.Max, 5)
				body = wire.AppendUpload(nil, results, next)
			}
		}
		if err != nil {
			http.Error(w, "bad frame", http.StatusBadRequest)
			return
		}
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()
	ep := &Endpoint{Name: "me", BaseURL: hs.URL, Client: hs.Client(), Retry: fastRetry}
	var runs []int
	for len(runs) < 10 {
		n, err := ep.RunBatch(32)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, n)
		if n == 0 {
			break
		}
	}
	if want := []int{5, 5, 5, 5, 0}; !slices.Equal(runs, want) || len(srv.Results()) != 20 {
		t.Fatalf("RunBatch(32) behind a clamp of 5 = %v, %d results; want %v, all 20", runs, len(srv.Results()), want)
	}
}

// TestRunBatchDrainedCarriesVitals: the drained shortcut never drops a
// heartbeat. After a drained lease, vitals sampled in between make the next
// RunBatch lease once — reporting them — and return 0; the call after
// that leases normally again, as it would have without vitals.
func TestRunBatchDrainedCarriesVitals(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv := NewServer(nil)
			ep := &Endpoint{Name: "me", Dep: world(t).Deployments["PAK"], Src: rng.New(5), Retry: fastRetry, battery: 1}
			ct := countRequests(t, tr.bind, srv, ep)
			if _, err := srv.ScheduleBatch("me", make([]Task, 3)); err != nil {
				t.Fatal(err)
			}
			if n, err := ep.RunBatch(32); n != 3 || err != nil || ct.leases != 1 {
				t.Fatalf("RunBatch = %d, %v after %d leases; want the 3 in one lease", n, err, ct.leases)
			}
			ep.Heartbeat()
			want := ep.vitals
			if n, err := ep.RunBatch(32); n != 0 || err != nil || ct.leases != 2 {
				t.Fatalf("drained RunBatch with vitals pending = %d, %v after %d leases; want 0 after one more lease", n, err, ct.leases)
			}
			if got, _ := srv.Vitals("me"); got != want || !ep.vitals.IsZero() {
				t.Fatalf("server vitals %+v, pending %+v; want %+v reported and none pending", got, ep.vitals, want)
			}
			if n, err := ep.RunBatch(32); n != 0 || err != nil || ct.leases != 3 {
				t.Fatalf("RunBatch after the vitals lease = %d, %v after %d leases; want an ordinary lease", n, err, ct.leases)
			}
		})
	}
}

// lossyTransport records every lease request and loses the responses of
// the next drop of them, and of the next dropUploads uploads: each request
// reaches the server, and the Endpoint sees a failed attempt.
type lossyTransport struct {
	Transport
	drop, dropUploads int
	sent              []wire.LeaseRequest
}

func (l *lossyTransport) Upload(ctx context.Context, key string, results []Result, next wire.LeaseRequest) ([]Task, bool, error) {
	tasks, drained, err := l.Transport.Upload(ctx, key, results, next)
	if err == nil && l.dropUploads > 0 {
		l.dropUploads--
		return nil, false, Retryable{Err: errors.New("upload response lost")}
	}
	return tasks, drained, err
}

func (l *lossyTransport) Lease(ctx context.Context, req wire.LeaseRequest) ([]Task, bool, error) {
	l.sent = append(l.sent, req)
	tasks, drained, err := l.Transport.Lease(ctx, req)
	if err == nil && l.drop > 0 {
		l.drop--
		return nil, false, Retryable{Err: errors.New("lease response lost")}
	}
	return tasks, drained, err
}

// TestRedeliverLostResponse: a redelivery lease whose response is lost is
// retried with the flag still set, and the retry re-delivers the same
// first batch — the schedule is restored again, nothing skipped — on both
// transports. The lease after it is an ordinary one.
func TestRedeliverLostResponse(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv := NewServer(nil)
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			tr.bind(t, srv, ep)
			lt := &lossyTransport{Transport: ep.Transport}
			if lt.Transport == nil {
				lt.Transport = (*httpTransport)(ep)
			}
			ep.Transport = lt
			ids, err := srv.ScheduleBatch("me", make([]Task, 10))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ { // 8 delivered, the first 4 acked
				if _, err := ep.Lease(4); err != nil {
					t.Fatal(err)
				}
			}
			ep.Redeliver()
			lt.drop = 1
			tasks, err := ep.Lease(4)
			if err != nil || !slices.Equal(leaseIDs(tasks), ids[:4]) {
				t.Fatalf("redelivery after a lost response = %v, %v; want %v", leaseIDs(tasks), err, ids[:4])
			}
			lost, retry := lt.sent[len(lt.sent)-2], lt.sent[len(lt.sent)-1]
			if !lost.Redeliver || retry != lost || retry.Ack != 0 {
				t.Fatalf("lost lease %+v, retried as %+v; want the same redelivery, ack 0", lost, retry)
			}
			if tasks, err := ep.Lease(4); err != nil || !slices.Equal(leaseIDs(tasks), ids[4:8]) || lt.sent[len(lt.sent)-1].Redeliver {
				t.Fatalf("next lease = %v, %v (redeliver %v); want %v, no redelivery", leaseIDs(tasks), err, lt.sent[len(lt.sent)-1].Redeliver, ids[4:8])
			}
		})
	}
}

// swappable binds an Endpoint, on either transport, to whichever Server
// use names last — how a shard that lost its state looks to an ME — and
// counts its requests.
func swappable(t *testing.T, transport string, ep *Endpoint) (ct *countingTransport, use func(*Server)) {
	var cur atomic.Pointer[Server]
	ct = &countingTransport{Transport: (*httpTransport)(ep)}
	if transport == "http" {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cur.Load().Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		ep.BaseURL, ep.Client = hs.URL, hs.Client()
	}
	ep.Transport = ct
	return ct, func(srv *Server) {
		cur.Store(srv)
		if transport == "direct" {
			ct.Transport = DirectTransport{Server: srv}
		}
	}
}

// batchOf is a result for each task, as the ME named me uploads them.
func batchOf(me string, tasks []Task) []Result {
	results := make([]Result, len(tasks))
	for i, task := range tasks {
		results[i] = Result{TaskID: task.ID, ME: me, Kind: "dns", Config: "esim"}
	}
	return results
}

// TestUploadCarriesLease pins the upload that carries the next lease, on
// both transports:
//   - a retried upload, its results dropped as a duplicate, still answers
//     its lease, re-sent from the ack cursor;
//   - a lease part that fails (the ME unknown to a replacement server)
//     leaves the results accepted and answers nothing, and the ME's next
//     Lease asks and meets the failure itself;
//   - a lease naming another ME than the batch's first result is refused
//     whole and permanently (400 over HTTP), the results not accepted;
//   - the kept reply serves only a Lease of the same max with no
//     Redeliver pending; otherwise the Lease asks and the server re-sends
//     from the ack cursor, and Redeliver drops it. Vitals pending at such
//     a Lease do not make it ask: they ride the upload's lease.
func TestUploadCarriesLease(t *testing.T) {
	ctx := context.Background()
	for _, tr := range transports {
		t.Run("duplicate/"+tr.name, func(t *testing.T) {
			srv := NewServer(nil)
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			ct, use := swappable(t, tr.name, ep)
			use(srv)
			ep.Transport = &lossyTransport{Transport: ct, dropUploads: 1}
			ids, _ := srv.ScheduleBatch("me", make([]Task, 10))
			first, err := ep.Lease(4)
			if err != nil || !slices.Equal(leaseIDs(first), ids[:4]) {
				t.Fatalf("Lease = %v, %v", leaseIDs(first), err)
			}
			if err := ep.Upload(batchOf("me", first)); err != nil {
				t.Fatal(err)
			}
			next, err := ep.Lease(4)
			if err != nil || !slices.Equal(leaseIDs(next), ids[4:8]) || ct.uploads != 2 || ct.carried != 2 || ct.leases != 1 {
				t.Fatalf("Lease after a retried upload = %v, %v after %d uploads (%d carrying a lease), %d leases; want %v unasked, both uploads carrying it",
					leaseIDs(next), err, ct.uploads, ct.carried, ct.leases, ids[4:8])
			}
			if got := len(srv.Results()); got != 4 {
				t.Fatalf("server holds %d results, want the 4 once", got)
			}
		})
		t.Run("lease-fails/"+tr.name, func(t *testing.T) {
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			ct, use := swappable(t, tr.name, ep)
			old, fresh := NewServer(nil), NewServer(nil)
			use(old)
			if _, err := old.ScheduleBatch("me", make([]Task, 10)); err != nil {
				t.Fatal(err)
			}
			tasks, err := ep.Lease(4)
			if err != nil || len(tasks) != 4 {
				t.Fatalf("Lease = %d tasks, %v", len(tasks), err)
			}
			use(fresh)
			if err := ep.Upload(batchOf("me", tasks)); err != nil || ct.carried != 1 {
				t.Fatalf("Upload whose lease part fails = %v, %d carrying a lease; want nil, 1", err, ct.carried)
			}
			if got := len(fresh.Results()); got != 4 {
				t.Fatalf("replacement server holds %d results, want the 4 accepted", got)
			}
			if _, err := ep.Lease(4); !errors.Is(err, ErrUnknownME) || ct.leases != 2 {
				t.Fatalf("Lease after a failed lease part = %v after %d leases; want ErrUnknownME from a second lease", err, ct.leases)
			}
		})
		t.Run("other-me/"+tr.name, func(t *testing.T) {
			srv := NewServer(nil)
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			ct, use := swappable(t, tr.name, ep)
			use(srv)
			for _, me := range []string{"me", "other"} {
				if _, err := srv.ScheduleBatch(me, make([]Task, 4)); err != nil {
					t.Fatal(err)
				}
			}
			var retryable Retryable
			_, _, err := ct.Transport.Upload(ctx, "k", batchOf("me", make([]Task, 2)), wire.LeaseRequest{ME: "other", Max: 4})
			if err == nil || errors.As(err, &retryable) {
				t.Fatalf("upload whose lease names another ME: err = %v, want a permanent refusal", err)
			}
			if tr.name == "http" && !strings.HasSuffix(err.Error(), "HTTP 400") {
				t.Fatalf("over HTTP: %v, want a 400", err)
			}
			if got := len(srv.Results()); got != 0 {
				t.Fatalf("server holds %d results, want none accepted", got)
			}
		})
		t.Run("kept-reply/"+tr.name, func(t *testing.T) {
			srv := NewServer(nil)
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			ct, use := swappable(t, tr.name, ep)
			use(srv)
			ids, _ := srv.ScheduleBatch("me", make([]Task, 30))
			// step leases max, then uploads the batch with vitals pending.
			step := func(max int, want []int, wantLeases int, vitals Vitals) {
				t.Helper()
				tasks, err := ep.Lease(max)
				if err != nil || !slices.Equal(leaseIDs(tasks), want) || ct.leases != wantLeases {
					t.Fatalf("Lease(%d) = %v, %v after %d leases; want %v after %d", max, leaseIDs(tasks), err, ct.leases, want, wantLeases)
				}
				ep.vitals = vitals
				if err := ep.Upload(batchOf("me", tasks)); err != nil {
					t.Fatal(err)
				}
			}
			step(4, ids[:4], 1, Vitals{})
			step(4, ids[4:8], 1, Vitals{})  // the kept reply
			step(5, ids[8:13], 2, Vitals{}) // another max: asks, and the 4 kept come back re-sent
			ep.vitals = Vitals{CQI: 3, RAT: "5G"}
			step(5, ids[13:18], 2, Vitals{CQI: 4, RAT: "4G"}) // vitals pending: the kept reply; they ride the upload's lease
			if v, _ := srv.Vitals("me"); v.CQI != 4 || !ep.vitals.IsZero() {
				t.Fatalf("server vitals %+v, pending %+v; want the upload's lease to have reported CQI 4", v, ep.vitals)
			}
			step(5, ids[18:23], 2, Vitals{}) // the kept reply
			ep.Redeliver()
			step(5, ids[:5], 3, Vitals{})   // Redeliver dropped the kept reply
			step(5, ids[5:10], 3, Vitals{}) // and the redelivered lease's upload carried the next
		})
	}
}

// BenchmarkLeaseAck: the server's side of one drain ME per op, in process
// — 64 tasks scheduled, then leased 32 at a time, each lease acking the
// one before (the previous op's last included), until a lease is drained.
// The ME's schedule is kept whole (Requeue may restore it), so a fresh
// server takes over every 1024 ops, off the clock, to keep the
// benchmark's memory flat.
func BenchmarkLeaseAck(b *testing.B) {
	var srv *Server
	var ack int
	tasks := make([]Task, 64)
	dst := make([]Task, 0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			b.StopTimer()
			srv, ack = NewServer(nil), 0
			b.StartTimer()
		}
		if _, err := srv.ScheduleBatch("me", tasks); err != nil {
			b.Fatal(err)
		}
		leases := 0
		for drained := false; !drained; leases++ {
			var err error
			dst, drained, err = srv.lease(wire.LeaseRequest{ME: "me", Max: 32, Ack: ack}, dst[:0])
			if err != nil || len(dst) == 0 {
				b.Fatalf("lease %d: %d tasks, %v", leases, len(dst), err)
			}
			ack = dst[len(dst)-1].ID
		}
		if leases != 2 {
			b.Fatalf("64 tasks at 32 took %d leases, want 2", leases)
		}
	}
}
