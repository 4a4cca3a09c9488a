package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
)

// TestCampaignLeasesOncePerME: in a clean campaign whose schedules fit one
// lease, every ME leases once and uploads once — the short lease tells
// it the queue is drained, so no confirming lease follows.
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
		io.WriteString(w, `{"task_ids":[]}`)
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

// TestScheduleBodyMatchesMapMarshal: the schedule POST body is a struct
// with its fields in sorted key order, byte for byte what json.Marshal
// made of the map it replaced.
func TestScheduleBodyMatchesMapMarshal(t *testing.T) {
	var mu sync.Mutex
	var body []byte
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		body = b
		mu.Unlock()
		io.WriteString(w, `{"task_ids":[7,9]}`)
	}))
	defer hs.Close()
	const me = "me-<&>\"é\u2028"
	tasks := []amigo.Task{{ID: 7, Kind: "mtr", Target: "Google", Config: "esim"}, {Kind: "dns", Config: "sim"}}
	d := &Driver{BaseURL: hs.URL}
	if _, err := d.scheduleBatch(hs.Client(), me, tasks); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(map[string]any{"me": me, "tasks": tasks})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(body, want) {
		t.Errorf("schedule body = %s, want the map's %s", body, want)
	}
}
