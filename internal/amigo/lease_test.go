package amigo

import (
	"context"
	"errors"
	"slices"
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

// TestLeaseShortOnlyWhenDrained pins the short-lease contract RunBatch
// stops on: a lease returns the first max of the ME's pending tasks —
// every scheduled ID above the ack cursor, re-sent and fresh alike — so
// fewer than max come back only when that is all of them. A seeded walk
// schedules, leases with varying max, and loses lease responses (the
// client keeps its old ack), on both transports.
func TestLeaseShortOnlyWhenDrained(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv := NewServer(nil, WithObs(reg))
			ep := &Endpoint{Name: "me", Retry: fastRetry}
			tr.bind(t, srv, ep)
			var scheduled []int // every ID scheduled, ascending
			schedule := func(n int) {
				ids, err := srv.ScheduleBatch("me", make([]Task, n))
				if err != nil {
					t.Fatal(err)
				}
				scheduled = append(scheduled, ids...)
			}
			lease := func(max int, lost bool) []int {
				t.Helper()
				ack := ep.acked
				tasks, err := ep.Lease(max)
				if err != nil {
					t.Fatal(err)
				}
				if lost {
					ep.acked = ack
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
// Transport under an Endpoint.
type countingTransport struct {
	Transport
	leases, uploads int
}

func (c *countingTransport) Lease(ctx context.Context, req wire.LeaseRequest) ([]Task, error) {
	c.leases++
	return c.Transport.Lease(ctx, req)
}

func (c *countingTransport) Upload(ctx context.Context, key string, results []Result) error {
	c.uploads++
	return c.Transport.Upload(ctx, key, results)
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

// TestRunBatchSkipsConfirmingLease: once RunBatch has uploaded a short
// lease, the next call reports the queue drained without a request, and
// the call after that leases again. Full leases — max tasks, with max
// clamped to maxLeaseBatch — never short-circuit, and Redeliver forgets
// the short lease along with the ack cursor.
func TestRunBatchSkipsConfirmingLease(t *testing.T) {
	for _, tc := range []struct {
		name         string
		queued, max  int
		wantN        []int // per RunBatch call
		wantLeases   []int // leases made so far, after each call
		wantUploads  int
		wantHTTPPath int // /v3/tasks/lease requests counted by the HTTP endpoint
	}{
		{"short", 18, 32, []int{18, 0, 0}, []int{1, 1, 2}, 1, 2},
		{"full", 64, 32, []int{32, 32, 0}, []int{1, 2, 3}, 2, 3},
		{"full-then-short", 40, 32, []int{32, 8, 0, 0}, []int{1, 2, 2, 3}, 2, 3},
		{"clamped", maxLeaseBatch, 5000, []int{maxLeaseBatch, 0, 0}, []int{1, 2, 3}, 1, 3},
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
				if ct.uploads != tc.wantUploads || len(srv.Results()) != tc.queued {
					t.Errorf("%d uploads, %d results; want %d and %d", ct.uploads, len(srv.Results()), tc.wantUploads, tc.queued)
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

// TestRunBatchDrainedCarriesVitals: the drained shortcut never drops a
// heartbeat. After a short lease, vitals sampled in between make the next
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
// the next drop of them: each lease reaches the server, and the Endpoint
// sees a failed attempt.
type lossyTransport struct {
	Transport
	drop int
	sent []wire.LeaseRequest
}

func (l *lossyTransport) Lease(ctx context.Context, req wire.LeaseRequest) ([]Task, error) {
	l.sent = append(l.sent, req)
	tasks, err := l.Transport.Lease(ctx, req)
	if err == nil && l.drop > 0 {
		l.drop--
		return nil, Retryable{Err: errors.New("lease response lost")}
	}
	return tasks, err
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
