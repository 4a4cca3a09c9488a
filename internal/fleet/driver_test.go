package fleet

import (
	"context"
	"errors"
	"fmt"
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
	_, hs := newControlServer(t, amigo.WithObs(reg))
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

// TestCampaignSchedulesInBlocks: a campaign schedules its whole plan in
// blocks of blockMEs MEs before any ME starts, so the schedule route
// serves ⌈MEs/blockMEs⌉ requests, and each ME's own requests are its
// lease and its upload.
func TestCampaignSchedulesInBlocks(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newControlServer(t, amigo.WithObs(reg))
	plan := Plan{Countries: []string{"PAK", "GEO"}, MEsPerCountry: blockMEs + 1, Tasks: []amigo.Task{{Kind: "dns"}}, Configs: []string{"sim"}}
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 2}
	camp, err := d.Run(testWorld(t), plan)
	if err != nil {
		t.Fatal(err)
	}
	if camp.Stats.Results != plan.MECount() {
		t.Fatalf("%d results for %d MEs of one task", camp.Stats.Results, plan.MECount())
	}
	blocks := (plan.MECount() + blockMEs - 1) / blockMEs
	for route, want := range map[string]int{"/admin/schedule": blocks, "/v3/tasks/lease": plan.MECount(), "/v3/results": plan.MECount()} {
		got := reg.Counter("amigo_server_requests_total", obs.L("route", route), obs.L("class", "2xx")).Value()
		if got != int64(want) {
			t.Errorf("%s: %d requests, want %d", route, got, want)
		}
	}
}

// TestScheduleBlocksStayInBounds: a block is cut short where its body
// would pass wire.MaxScheduleCount tasks or wire.MaxFrame bytes, so a
// server, which refuses such a body whole, takes every block.
func TestScheduleBlocksStayInBounds(t *testing.T) {
	many := func(n int, target string) []amigo.Task {
		tasks := make([]amigo.Task, n)
		for i := range tasks {
			tasks[i] = amigo.Task{Kind: "dns", Target: target}
		}
		return tasks
	}
	for _, c := range []struct {
		name  string
		tasks []amigo.Task // every ME's
		mes   int
		want  []int // MEs per request, in order
	}{
		{"block size", many(1, ""), 2*blockMEs + 2, []int{blockMEs, blockMEs, 2}},
		{"task bound", many(wire.MaxScheduleCount/2, ""), 3, []int{2, 1}},
		{"byte bound", many(1, strings.Repeat("x", wire.MaxFrame/3)), 3, []int{2, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := amigo.NewServer(nil)
			var mu sync.Mutex
			var sizes []int
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				srv.AdminHandler().ServeHTTP(rec, r)
				n := replyFrames(rec.Body.Bytes())
				mu.Lock()
				sizes = append(sizes, n)
				mu.Unlock()
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
			}))
			defer hs.Close()
			scheds := make([]MESchedule, c.mes)
			tasks := make([][]amigo.Task, c.mes)
			for i := range scheds {
				scheds[i].Name = fmt.Sprintf("me-%03d", i)
				tasks[i] = slices.Clone(c.tasks)
			}
			d := &Driver{BaseURL: hs.URL, Workers: 1}
			if err := d.scheduleAll(hs.Client(), scheds, tasks); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sizes, c.want) {
				t.Fatalf("requests carried %v MEs, want %v", sizes, c.want)
			}
			if last := tasks[c.mes-1][len(c.tasks)-1]; last.ID != c.mes*len(c.tasks) {
				t.Fatalf("the last task's ID is %d, want %d", last.ID, c.mes*len(c.tasks))
			}
		})
	}
}

// replyFrames counts a schedule reply's frames (0 for a refusal).
func replyFrames(reply []byte) int {
	n := 0
	for ; len(reply) > 0; n++ {
		h, err := wire.ParseHeader(reply)
		if err != nil {
			return 0
		}
		reply = reply[min(len(reply), wire.HeaderLen+int(h.N)):]
	}
	return n
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

// TestStragglerReclaimsHungSchedule: each schedule block runs under the
// straggler watchdog. Against a control plane whose /admin/schedule never
// answers, Run fails with the deadline instead of waiting forever.
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

// TestScheduleFrameCarriesTasks: the schedule POST body is the MEs'
// MsgSchedule frames back to back, decoding to exactly the MEs and tasks
// given, pinned IDs included, and each reply frame's IDs land in that ME's
// tasks in place.
func TestScheduleFrameCarriesTasks(t *testing.T) {
	var mu sync.Mutex
	var body []byte
	var contentType string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		body, contentType = b, r.Header.Get("Content-Type")
		mu.Unlock()
		reply := wire.AppendTasks(nil, []amigo.Task{{ID: 7, Kind: "mtr", Target: "Google", Config: "esim"}, {ID: 9, Kind: "dns", Config: "sim"}})
		w.Write(wire.AppendTasks(reply, []amigo.Task{{ID: 10, Kind: "dns", Config: "esim"}}))
	}))
	defer hs.Close()
	scheds := []MESchedule{{Name: "me-<&>\"é\u2028"}, {Name: "me-DEU"}}
	want := [][]amigo.Task{{{ID: 7, Kind: "mtr", Target: "Google", Config: "esim"}, {Kind: "dns", Config: "sim"}}, {{Kind: "dns", Config: "esim"}}}
	tasks := [][]amigo.Task{slices.Clone(want[0]), slices.Clone(want[1])}
	d := &Driver{BaseURL: hs.URL}
	if err := d.scheduleAll(hs.Client(), scheds, tasks); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if contentType != wire.ContentType {
		t.Errorf("Content-Type = %q, want %q", contentType, wire.ContentType)
	}
	_, frames, err := wire.NewDecoder().Schedules(body, nil, nil)
	if err != nil || len(frames) != 2 {
		t.Fatalf("schedule body %x is not two MsgSchedule frames (%d, %v)", body, len(frames), err)
	}
	for i, f := range frames {
		gotME, got, err := wire.NewDecoder().Schedule(f.Frame[wire.HeaderLen:], nil)
		if err != nil || gotME != scheds[i].Name || !slices.Equal(got, want[i]) {
			t.Errorf("frame %d decodes to %q %+v (%v), want %q %+v", i, gotME, got, err, scheds[i].Name, want[i])
		}
	}
	if tasks[0][0].ID != 7 || tasks[0][1].ID != 9 || tasks[1][0].ID != 10 {
		t.Errorf("tasks after the reply: %+v, want IDs 7 and 9, then 10", tasks)
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
			tasks := []amigo.Task{{Kind: "dns", Config: "sim"}}
			body := wire.AppendSchedule(nil, "me", tasks)
			return d.scheduleBlock(context.Background(), first.Client(), body, []MESchedule{{Name: "me"}}, [][]amigo.Task{tasks})
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
