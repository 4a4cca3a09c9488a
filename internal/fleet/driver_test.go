package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/shard"
	"roamsim/internal/wire"
)

// TestCampaignLeasesOncePerME: in a clean campaign whose schedules fit one
// lease, every ME leases once and uploads once — the lease is marked
// drained, so no confirming lease follows.
func TestCampaignLeasesOncePerME(t *testing.T) {
	reg := obs.NewRegistry()
	hs := newObsControlServer(t, reg, nil)
	plan := chaosTestPlan()
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 2, StreamLabel: "obs-eq", Obs: reg}
	if plan.TasksPerME() >= d.leaseBatch() {
		t.Fatalf("plan has %d tasks per ME; it must fit one lease of %d", plan.TasksPerME(), d.leaseBatch())
	}
	if _, err := d.Run(testWorld(t), plan); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"/v3/tasks/lease", "/v3/results"} {
		var got int64
		for _, class := range []string{"2xx", "3xx", "4xx", "429", "5xx"} {
			got += reg.Counter("amigo_server_requests_total", obs.L("route", route), obs.L("class", class)).Value()
		}
		if want := int64(plan.MECount()); got != want {
			t.Errorf("%s requests = %d, want one per ME (%d)", route, got, want)
		}
	}
}

// TestScheduleRejectsWrongIDCount: a schedule response that does not
// assign one ID per task fails the campaign, naming the ME and both
// counts — unpinned IDs would make a later shard recovery re-schedule
// under fresh IDs, whose replayed uploads no longer dedup at ingest.
func TestScheduleRejectsWrongIDCount(t *testing.T) {
	srv := amigo.NewServer(nil)
	mux := http.NewServeMux()
	mux.Handle("/", shard.Mount(srv.Handler(), srv.AdminHandler()))
	mux.HandleFunc("POST /admin/schedule", func(w http.ResponseWriter, r *http.Request) {
		w.Write(wire.AppendTasks(nil, nil))
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	plan := Plan{Countries: []string{"PAK"}}
	d := &Driver{BaseURL: hs.URL, Seed: testSeed}
	_, err := d.Run(testWorld(t), plan)
	want := "fleet: schedule me-PAK: server assigned 0 IDs for 18 tasks"
	if plan.TasksPerME() != 18 || err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run against a server assigning no IDs: %v, want %q", err, want)
	}
}

// TestStragglerReclaimsHungSchedule: the schedule POST runs under the
// incarnation's straggler watchdog. Against a control plane whose
// /admin/schedule never answers, each incarnation costs Straggler, and
// Run fails with the deadline once the restart budget is spent, instead
// of waiting forever.
func TestStragglerReclaimsHungSchedule(t *testing.T) {
	srv := amigo.NewServer(nil)
	mux := http.NewServeMux()
	mux.Handle("/", shard.Mount(srv.Handler(), srv.AdminHandler()))
	mux.HandleFunc("POST /admin/schedule", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // a read body lets the server see the client go
		<-r.Context().Done()
	})
	hs := httptest.NewServer(mux)
	defer func() { hs.CloseClientConnections(); hs.Close() }()
	w := testWorld(t)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Straggler: 100 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(w, Plan{Countries: []string{"PAK"}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Run against a hung schedule: %v, want the straggler deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still waits on a hung schedule after 10s: the straggler watchdog does not cover it")
	}
}

// TestStragglerBoundsResultsReadBack: the campaign's results read-back
// runs under the straggler bound too. Against a plane whose first results
// page never answers, Run fails with the deadline instead of waiting
// forever.
func TestStragglerBoundsResultsReadBack(t *testing.T) {
	srv := amigo.NewServer(nil)
	mux := http.NewServeMux()
	mux.Handle("/", shard.Mount(srv.Handler(), srv.AdminHandler()))
	mux.HandleFunc("GET /admin/results", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cursor") == "0" {
			<-r.Context().Done()
			return
		}
		srv.AdminHandler().ServeHTTP(w, r)
	})
	hs := httptest.NewServer(mux)
	defer func() { hs.CloseClientConnections(); hs.Close() }()
	w := testWorld(t)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Straggler: 100 * time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(w, Plan{Countries: []string{"PAK"}})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Run against a hung results page: %v, want the straggler deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still waits on a hung results page after 10s: the read-back has no deadline")
	}
}

// TestScheduleFrameCarriesTasks: the schedule POST body is one
// MsgSchedule frame that decodes to exactly the ME and tasks given, pinned
// IDs included, and the reply's IDs land in the tasks in place.
func TestScheduleFrameCarriesTasks(t *testing.T) {
	var mu sync.Mutex
	var body []byte
	var contentType string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		body, contentType = b, r.Header.Get("Content-Type")
		mu.Unlock()
		w.Write(wire.AppendTasks(nil, []amigo.Task{{ID: 7, Kind: "mtr", Target: "Google", Config: "esim"}, {ID: 9, Kind: "dns", Config: "sim"}}))
	}))
	defer hs.Close()
	const me = "me-<&>\"é\u2028"
	want := []amigo.Task{{ID: 7, Kind: "mtr", Target: "Google", Config: "esim"}, {Kind: "dns", Config: "sim"}}
	tasks := slices.Clone(want)
	d := &Driver{BaseURL: hs.URL}
	if err := d.scheduleBatch(context.Background(), hs.Client(), me, tasks); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if contentType != wire.ContentType {
		t.Errorf("Content-Type = %q, want %q", contentType, wire.ContentType)
	}
	h, err := wire.ParseHeader(body)
	if err != nil || h.Type != wire.MsgSchedule || int(h.N) != len(body)-wire.HeaderLen {
		t.Fatalf("schedule body %x is not one MsgSchedule frame (%+v, %v)", body, h, err)
	}
	gotME, got, err := wire.NewDecoder().Schedule(body[wire.HeaderLen:], nil)
	if err != nil || gotME != me || !slices.Equal(got, want) {
		t.Errorf("schedule frame decodes to %q %+v (%v), want %q %+v", gotME, got, err, me, want)
	}
	if tasks[0].ID != 7 || tasks[1].ID != 9 {
		t.Errorf("tasks after the reply: %+v, want IDs 7 and 9", tasks)
	}
}

// TestControlPlaneDoesNotFollowRedirects: a lease, an upload and a
// schedule answered 307 fail permanently, naming the status, after one
// attempt. Nothing is re-sent to where Location points — not the frame,
// not the upload's Idempotency-Key — even when a working server waits
// there, at another address.
func TestControlPlaneDoesNotFollowRedirects(t *testing.T) {
	srv := amigo.NewServer(nil)
	if _, err := srv.ScheduleBatch("me", []amigo.Task{{Kind: "dns", Config: "sim"}}); err != nil {
		t.Fatal(err)
	}
	var asked, reached atomic.Int64
	target := shard.Mount(srv.Handler(), srv.AdminHandler())
	second := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		target.ServeHTTP(w, r)
	}))
	defer second.Close()
	first := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		http.Redirect(w, r, second.URL+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	defer first.Close()

	ep := amigo.NewEndpoint("me", first.URL, nil, rng.New(1))
	ep.Retry = amigo.Backoff{MaxAttempts: 3}
	d := &Driver{BaseURL: first.URL}
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"lease", func() error { _, err := ep.Lease(1); return err }},
		{"upload", func() error {
			return ep.Upload([]amigo.Result{{TaskID: 1, ME: "me", Kind: "dns", Config: "sim", OK: true, Payload: []byte(`{}`)}})
		}},
		{"schedule", func() error {
			return d.scheduleBatch(context.Background(), first.Client(), "me", []amigo.Task{{Kind: "dns", Config: "sim"}})
		}},
	} {
		if err := op.call(); err == nil || !strings.Contains(err.Error(), "HTTP 307") {
			t.Errorf("%s answered 307: err = %v, want a permanent error naming HTTP 307", op.name, err)
		}
	}
	if n := asked.Load(); n != 3 {
		t.Errorf("the redirecting server saw %d requests, want one per operation (3): a 307 is not retried", n)
	}
	if n := reached.Load(); n != 0 {
		t.Errorf("the redirect target saw %d requests, want none", n)
	}
}
