package amigo

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/wire"
)

var sharedWorld *airalo.World

func world(t testing.TB) *airalo.World {
	t.Helper()
	if sharedWorld == nil {
		w, err := airalo.Build(21)
		if err != nil {
			t.Fatal(err)
		}
		sharedWorld = w
	}
	return sharedWorld
}

func testbed(t *testing.T, iso string, opts ...Option) (*Server, *Endpoint, func()) {
	t.Helper()
	fixed := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	srv := NewServer(func() time.Time { return fixed }, opts...)
	hs := httptest.NewServer(srv.Handler())
	ep := NewEndpoint("me-"+iso, hs.URL, world(t).Deployments[iso], rng.New(5))
	return srv, ep, hs.Close
}

// TestRegisterAndHeartbeat: an ME is registered by its first schedule —
// an empty one here — and its vitals ride its leases.
func TestRegisterAndHeartbeat(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	if _, err := ep.Lease(4); !errors.Is(err, ErrUnknownME) {
		t.Fatalf("lease before any schedule: %v, want ErrUnknownME", err)
	}
	if _, err := srv.ScheduleBatch(ep.Name, nil); err != nil {
		t.Fatal(err)
	}
	if got := srv.MEs(); len(got) != 1 || got[0] != "me-PAK" {
		t.Fatalf("MEs = %v", got)
	}
	// A heartbeat is no request: its vitals reach the server on the next
	// lease, an empty one included.
	ep.Heartbeat()
	if v, _ := srv.Vitals("me-PAK"); v != (Vitals{}) {
		t.Fatalf("vitals %+v reported before any lease", v)
	}
	if tasks, err := ep.Lease(4); err != nil || len(tasks) != 0 {
		t.Fatalf("lease of an empty queue = %v, %v", tasks, err)
	}
	v, ok := srv.Vitals("me-PAK")
	if !ok {
		t.Fatal("vitals missing")
	}
	if v.CQI < 1 || v.CQI > 15 || v.Battery <= 0 {
		t.Errorf("implausible vitals: %+v", v)
	}
	if v.RAT != "4G" && v.RAT != "5G" {
		t.Errorf("RAT = %s", v.RAT)
	}
}

// TestScheduleCreatesME: an ME does not register. Scheduling for an ME
// the server does not know creates it, in process and over the admin
// route, and its lease then carries what was scheduled.
func TestScheduleCreatesME(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	ids, err := srv.ScheduleBatch(ep.Name, []Task{{Kind: "speedtest", Config: "esim"}})
	if err != nil {
		t.Fatal(err)
	}
	if tasks, err := ep.Lease(4); err != nil || !slices.Equal(leaseIDs(tasks), ids) {
		t.Fatalf("lease = %v, %v; want %v", leaseIDs(tasks), err, ids)
	}
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()
	resp, err := admin.Client().Post(admin.URL+"/admin/schedule", wire.ContentType,
		bytes.NewReader(wire.AppendSchedule(nil, "me-DEU", []Task{{Kind: "dns", Config: "sim"}})))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule for a new ME: HTTP %d", resp.StatusCode)
	}
	if got := srv.MEs(); !slices.Equal(got, []string{"me-DEU", "me-PAK"}) {
		t.Errorf("MEs = %v, want both scheduled ones", got)
	}
}

func TestTaskRoundTripAllKinds(t *testing.T) {
	srv, ep, done := testbed(t, "DEU")
	defer done()
	tasks := []Task{
		{Kind: "speedtest", Config: "esim"},
		{Kind: "speedtest", Config: "sim"},
		{Kind: "mtr", Target: "Google", Config: "esim"},
		{Kind: "mtr", Target: "Facebook", Config: "sim"},
		{Kind: "cdn", Target: "Cloudflare", Config: "esim"},
		{Kind: "dns", Config: "sim"},
		{Kind: "video", Config: "esim"},
	}
	for _, task := range tasks {
		if _, err := srv.ScheduleBatch("me-DEU", []Task{task}); err != nil {
			t.Fatal(err)
		}
	}
	for {
		n, err := ep.RunBatch(3)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	results := srv.Results()
	if len(results) != len(tasks) {
		t.Fatalf("results = %d, want %d", len(results), len(tasks))
	}
	for i, r := range results {
		if !r.OK {
			t.Errorf("task %d (%s) failed: %s", i, r.Kind, r.Error)
		}
		if len(r.Payload) == 0 {
			t.Errorf("task %d has empty payload", i)
		}
	}
	// Spot-check a payload: the speedtest carries a public IP and caps.
	var st SpeedtestPayload
	if err := st.UnmarshalBinary(results[0].Payload); err != nil {
		t.Fatal(err)
	}
	if st.DownMbps <= 0 || st.PublicIP == "" {
		t.Errorf("bad speedtest payload: %+v", st)
	}
	// And an mtr payload: multiple hops, at least one that responded.
	var tr MTRTrace
	if err := tr.UnmarshalBinary(results[2].Payload); err != nil {
		t.Fatal(err)
	}
	if len(tr.Hops) < 4 {
		t.Errorf("mtr hops = %d", len(tr.Hops))
	}
	responded := 0
	for _, h := range tr.Hops {
		if h.Responded {
			responded++
		}
	}
	if responded == 0 {
		t.Error("no responding hops in mtr payload")
	}
}

func TestUnknownTaskKindReported(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	srv.ScheduleBatch("me-PAK", []Task{{Kind: "teleport", Config: "esim"}})
	if _, err := ep.RunBatch(1); err != nil {
		t.Fatal(err)
	}
	rs := srv.Results()
	if len(rs) != 1 || rs[0].OK || rs[0].Error == "" {
		t.Errorf("bad error result: %+v", rs)
	}
}

func TestSIMTaskOnWebOnlyCountryFails(t *testing.T) {
	srv, ep, done := testbed(t, "FRA") // web campaign: eSIM only
	defer done()
	srv.ScheduleBatch("me-FRA", []Task{{Kind: "speedtest", Config: "sim"}})
	if _, err := ep.RunBatch(1); err != nil {
		t.Fatal(err)
	}
	rs := srv.Results()
	if rs[0].OK {
		t.Error("SIM task in a web-only country should fail (no physical SIM)")
	}
}

func TestEmptyQueueReturnsNoTask(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	if _, err := srv.ScheduleBatch(ep.Name, nil); err != nil {
		t.Fatal(err)
	}
	n, err := ep.RunBatch(32)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("empty queue ran %d tasks", n)
	}
}

// TestBadRequests: an empty lease is 400, and the routes an ME used to
// register and to ask for redelivery are not served.
func TestBadRequests(t *testing.T) {
	srv := NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, c := range []struct {
		path, contentType string
		want              int
	}{
		{"/v3/tasks/lease", wire.ContentType, http.StatusBadRequest},
		{"/v1/register", "application/json", http.StatusNotFound},
		{"/v2/tasks/requeue", "application/json", http.StatusNotFound},
	} {
		resp, err := hs.Client().Post(hs.URL+c.path, c.contentType, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("empty POST %s: HTTP %d, want %d", c.path, resp.StatusCode, c.want)
		}
	}
}

func TestConcurrentEndpoints(t *testing.T) {
	// Several MEs in different countries share one control server, as in
	// the real campaign; results must all arrive and stay attributed.
	fixed := time.Date(2024, 3, 2, 9, 0, 0, 0, time.UTC)
	srv := NewServer(func() time.Time { return fixed })
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	countries := []string{"PAK", "DEU", "THA", "GEO"}
	const tasksPer = 3
	done := make(chan error, len(countries))
	for i, iso := range countries {
		ep := NewEndpoint("me-"+iso, hs.URL, world(t).Deployments[iso], rng.New(int64(100+i)))
		for j := 0; j < tasksPer; j++ {
			if _, err := srv.ScheduleBatch("me-"+iso, []Task{{Kind: "speedtest", Config: "esim"}}); err != nil {
				t.Fatal(err)
			}
		}
		go func(e *Endpoint) {
			for {
				n, err := e.RunBatch(2)
				if err != nil {
					done <- err
					return
				}
				if n == 0 {
					done <- nil
					return
				}
			}
		}(ep)
	}
	for range countries {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	results := srv.Results()
	if len(results) != len(countries)*tasksPer {
		t.Fatalf("results = %d, want %d", len(results), len(countries)*tasksPer)
	}
	perME := map[string]int{}
	for _, r := range results {
		if !r.OK {
			t.Errorf("failed result: %+v", r)
		}
		perME[r.ME]++
		if r.Uploaded != fixed {
			t.Error("server clock not applied to upload time")
		}
	}
	for _, iso := range countries {
		if perME["me-"+iso] != tasksPer {
			t.Errorf("me-%s results = %d", iso, perME["me-"+iso])
		}
	}
}

func TestLeaseBatchRoundTrip(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	var tasks []Task
	for i := 0; i < 5; i++ {
		tasks = append(tasks, Task{Kind: "dns", Config: "esim"})
	}
	ids, err := srv.ScheduleBatch("me-PAK", tasks)
	if err != nil || len(ids) != 5 {
		t.Fatalf("ScheduleBatch = %v, %v", ids, err)
	}
	first, err := ep.Lease(3)
	if err != nil || len(first) != 3 {
		t.Fatalf("lease = %d tasks, %v", len(first), err)
	}
	if first[0].ID != ids[0] || first[2].ID != ids[2] {
		t.Errorf("lease order: %+v vs ids %v", first, ids)
	}
	rest, err := ep.Lease(10)
	if err != nil || len(rest) != 2 {
		t.Fatalf("second lease = %d tasks, %v", len(rest), err)
	}
	empty, err := ep.Lease(10)
	if err != nil || len(empty) != 0 {
		t.Fatalf("drained lease = %d tasks, %v", len(empty), err)
	}
	var results []Result
	for _, task := range append(first, rest...) {
		results = append(results, ep.Execute(task))
	}
	if err := ep.Upload(results); err != nil {
		t.Fatal(err)
	}
	got := srv.Results()
	if len(got) != 5 {
		t.Fatalf("results = %d, want 5", len(got))
	}
	for _, r := range got {
		if !r.OK {
			t.Errorf("failed result: %+v", r)
		}
	}
}

func TestRunBatchDrainsQueue(t *testing.T) {
	srv, ep, done := testbed(t, "DEU")
	defer done()
	for i := 0; i < 7; i++ {
		srv.ScheduleBatch("me-DEU", []Task{{Kind: "speedtest", Config: "esim"}})
	}
	total := 0
	for {
		n, err := ep.RunBatch(3)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != 7 || len(srv.Results()) != 7 {
		t.Fatalf("executed %d, results %d, want 7", total, len(srv.Results()))
	}
}

func TestResultsSinceCursor(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	upload := func(n int) {
		var batch []Result
		for i := 0; i < n; i++ {
			batch = append(batch, Result{ME: "me-PAK", Kind: "dns", Config: "esim", OK: true})
		}
		if err := ep.Upload(batch); err != nil {
			t.Fatal(err)
		}
	}
	upload(3)
	rs, cursor := srv.ResultsSince(0, 0)
	if len(rs) != 3 || cursor != 3 {
		t.Fatalf("ResultsSince(0) = %d results, cursor %d", len(rs), cursor)
	}
	rs, cursor = srv.ResultsSince(cursor, 0)
	if len(rs) != 0 || cursor != 3 {
		t.Fatalf("incremental read = %d results, cursor %d", len(rs), cursor)
	}
	upload(2)
	rs, cursor = srv.ResultsSince(3, 0)
	if len(rs) != 2 || cursor != 5 {
		t.Fatalf("ResultsSince(3) = %d results, cursor %d", len(rs), cursor)
	}
	// Out-of-range cursors clamp instead of panicking.
	if rs, c := srv.ResultsSince(99, 0); len(rs) != 0 || c != 5 {
		t.Fatalf("ResultsSince(99) = %d results, cursor %d", len(rs), c)
	}
	if srv.Cursor() != 5 {
		t.Errorf("Cursor = %d, want 5", srv.Cursor())
	}
}

// gateSink blocks Append until its gate closes, simulating a sink that
// cannot keep up.
type gateSink struct {
	entered chan struct{}
	gate    chan struct{}
	inner   *MemorySink
	once    sync.Once
}

func (g *gateSink) Append(batch []Result) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	g.inner.Append(batch)
}

func TestBackpressureShedsWhenSinkStalls(t *testing.T) {
	sink := &gateSink{entered: make(chan struct{}), gate: make(chan struct{}), inner: NewMemorySink()}
	srv := NewServer(nil, WithSink(sink), WithSpoolCapacity(2), WithRetryAfter(0))
	one := func(me string) []Result { return []Result{{ME: me, OK: true}} }

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // blocks inside the stalled sink, holding the drain lock
		defer wg.Done()
		if err := srv.Submit(append(one("a"), one("b")...)); err != nil {
			t.Errorf("first submit: %v", err)
		}
	}()
	<-sink.entered
	go func() { // parks its batch in the spool, then waits on the drain lock
		defer wg.Done()
		if err := srv.Submit(append(one("c"), one("d")...)); err != nil {
			t.Errorf("second submit: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.SpoolDepth() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("spool never filled")
		}
		time.Sleep(time.Millisecond)
	}
	// The spool is full: further uploads are shed, not queued.
	if err := srv.Submit(one("e")); err != ErrSpoolFull {
		t.Fatalf("submit on full spool = %v, want ErrSpoolFull", err)
	}
	close(sink.gate)
	wg.Wait()
	if got := sink.inner.Len(); got != 4 {
		t.Fatalf("sunk results = %d, want 4", got)
	}
	// And read-your-writes holds again once the sink recovers.
	if err := srv.Submit(one("e")); err != nil {
		t.Fatal(err)
	}
	if got := sink.inner.Len(); got != 5 {
		t.Fatalf("results after recovery = %d, want 5", got)
	}
}

// TestSubmitAdoptsBatchIntoEmptySpool: Submit hands its own stamped copy
// to an empty spool instead of copying it a second time, and appends
// only when another submitter got there first. Two submitters racing a
// stalled sink exercise both branches; every result still lands exactly
// once and in each submitter's own order, the caller's slice is never
// the one the sink sees, and the copy saved is one allocation.
func TestSubmitAdoptsBatchIntoEmptySpool(t *testing.T) {
	sink := &gateSink{entered: make(chan struct{}), gate: make(chan struct{}), inner: NewMemorySink()}
	srv := NewServer(nil, WithSink(sink), WithRetryAfter(0))
	const batches, per = 20, 3
	var wg sync.WaitGroup
	submit := func(me string) {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			batch := make([]Result, per)
			for i := range batch {
				batch[i] = Result{ME: me, TaskID: b*per + i, OK: true}
			}
			if err := srv.Submit(batch); err != nil {
				t.Errorf("%s batch %d: %v", me, b, err)
			}
			for i := range batch { // the caller's slice stays the caller's
				if !batch[i].Uploaded.IsZero() {
					t.Errorf("%s batch %d: Submit stamped the caller's slice", me, b)
				}
				batch[i].ME = "scribbled"
			}
		}
	}
	wg.Add(1)
	go submit("a") // its first batch stalls in the sink, holding the drain lock
	<-sink.entered
	wg.Add(2)
	go submit("b") // one of these adopts into the empty spool,
	go submit("c") // the other appends behind it
	for deadline := time.Now().Add(5 * time.Second); srv.SpoolDepth() < 2*per; {
		if time.Now().After(deadline) {
			t.Fatal("both batches never parked in the spool")
		}
		time.Sleep(time.Millisecond)
	}
	close(sink.gate)
	wg.Wait()
	next := map[string]int{}
	sunk, _ := sink.inner.Since(0, 0)
	for _, r := range sunk {
		if r.TaskID != next[r.ME] {
			t.Fatalf("%s: result %d sunk where %d was due", r.ME, r.TaskID, next[r.ME])
		}
		next[r.ME]++
	}
	for _, me := range []string{"a", "b", "c"} {
		if next[me] != batches*per {
			t.Errorf("%s: %d results sunk, want %d", me, next[me], batches*per)
		}
	}

	quiet := NewServer(nil, WithSink(writeOnlySink{}))
	batch := make([]Result, 32)
	if a := testing.AllocsPerRun(100, func() { _ = quiet.Submit(batch) }); a != 1 {
		t.Errorf("Submit of 32 results allocates %.0f times, want 1 (2 at dd40cbb)", a)
	}
}

// TestEndpointUploadRetriesThrough429: an upload shed by a full spool —
// 429 over HTTP, ErrSpoolFull in-process — is retried until the sink
// recovers, and then lands exactly once.
func TestEndpointUploadRetriesThrough429(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			srv, sink, release := stallSpool(t, WithRetryAfter(0))
			reg := obs.NewRegistry()
			ep := &Endpoint{Name: "me-PAK", Obs: reg}
			tr.bind(t, srv, ep)
			// Release the sink shortly after the endpoint starts retrying.
			go func() {
				time.Sleep(100 * time.Millisecond)
				release()
			}()
			if err := ep.Upload([]Result{{ME: "me-PAK", Kind: "dns", Config: "esim", OK: true}}); err != nil {
				t.Fatalf("upload through backpressure: %v", err)
			}
			release()
			if got := sink.inner.Len(); got != 3 {
				t.Fatalf("results = %d, want 3", got)
			}
			if retries(reg, "results") == 0 {
				t.Error("the upload was never shed: the fixture did not exercise backpressure")
			}
		})
	}
}

func TestAdminHandlerScheduleAndResults(t *testing.T) {
	srv := NewServer(nil)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/admin/", srv.AdminHandler())
	hs := httptest.NewServer(mux)
	defer hs.Close()
	ep := NewEndpoint("me-PAK", hs.URL, world(t).Deployments["PAK"], rng.New(5))
	body := wire.AppendSchedule(nil, "me-PAK", []Task{{Kind: "dns", Config: "esim"}, {Kind: "speedtest", Config: "esim"}})
	resp, err := hs.Client().Post(hs.URL+"/admin/schedule", wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	h, payload, err := wire.ReadFrame(resp.Body, nil)
	resp.Body.Close()
	if err != nil || h.Type != wire.MsgTasks {
		t.Fatalf("schedule reply: %+v, %v", h, err)
	}
	sched, err := wire.NewDecoder().Tasks(payload, nil)
	if err != nil || len(sched) != 2 || sched[0].ID == 0 || sched[1].ID <= sched[0].ID || sched[1].Kind != "speedtest" {
		t.Fatalf("scheduled tasks = %+v (%v)", sched, err)
	}
	for {
		n, err := ep.RunBatch(8)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if _, rs, next := getResults(t, srv.AdminHandler(), "cursor=0"); next != 2 || len(rs) != 2 {
		t.Fatalf("page = cursor %d, %d results", next, len(rs))
	}
	// cursor=-1 peeks at the cursor without copying history.
	if _, rs, next := getResults(t, srv.AdminHandler(), "cursor=-1"); next != 2 || len(rs) != 0 {
		t.Fatalf("peek = cursor %d, %d results", next, len(rs))
	}
}

func TestConcurrentLeaseUploadManyMEs(t *testing.T) {
	// A miniature fleet hammering the sharded registry and spool
	// concurrently; meant to run under -race.
	srv := NewServer(nil)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	const mes, tasksPer = 32, 6
	var wg sync.WaitGroup
	for i := 0; i < mes; i++ {
		name := fmt.Sprintf("me-%03d", i)
		var tasks []Task
		for j := 0; j < tasksPer; j++ {
			tasks = append(tasks, Task{Kind: "noop", Config: "esim"})
		}
		if _, err := srv.ScheduleBatch(name, tasks); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			ep := &Endpoint{Name: name, BaseURL: hs.URL, Client: hs.Client()}
			for {
				leased, err := ep.Lease(4)
				if err != nil {
					t.Error(err)
					return
				}
				if len(leased) == 0 {
					return
				}
				var results []Result
				for _, task := range leased {
					results = append(results, Result{TaskID: task.ID, ME: name, Kind: task.Kind, OK: true})
				}
				if err := ep.Upload(results); err != nil {
					t.Error(err)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	if got := len(srv.Results()); got != mes*tasksPer {
		t.Fatalf("results = %d, want %d", got, mes*tasksPer)
	}
	if got := len(srv.MEs()); got != mes {
		t.Fatalf("MEs = %d, want %d", got, mes)
	}
}

// TestUploadKeyGolden pins the idempotency key: a server that accepted a
// batch under one build must recognise the same batch retried by the
// next. The keys were produced by the fmt.Fprintf-into-hash/fnv version
// this one replaced.
func TestUploadKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		me      string
		results []Result
		want    string
	}{
		{"me-PAK-3", nil, "e357ffe8bd968ade"},
		{"me-PAK-3", []Result{{TaskID: 1, Kind: "speedtest", Config: "sim"}}, "6af0a14d75cdf699"},
		{"me-GEO", []Result{
			{TaskID: 17, Kind: "mtr", Config: "esim"},
			{TaskID: 18, Kind: "cdn", Config: "esim"},
			{TaskID: -4, Kind: "", Config: "x"},
		}, "bffa940b775a32d3"},
		{"", []Result{{TaskID: 9007199254740993, Kind: "video", Config: "sim"}}, "94eb01c9eae170fb"},
	} {
		if got := uploadKey(tc.me, tc.results); got != tc.want {
			t.Errorf("uploadKey(%q, %d results) = %s, want %s", tc.me, len(tc.results), got, tc.want)
		}
	}
	batch := []Result{{TaskID: 17, Kind: "mtr", Config: "esim"}, {TaskID: 18, Kind: "cdn", Config: "esim"}}
	if a := testing.AllocsPerRun(100, func() { uploadKey("me-GEO", batch) }); a > 1 {
		t.Errorf("uploadKey allocates %.0f times, want 1 (the key)", a)
	}
}
