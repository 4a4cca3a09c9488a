package shard

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

func TestRingDeterministicAndTotal(t *testing.T) {
	r1 := NewRing(4)
	r2 := NewRing(4)
	for i := 0; i < 100; i++ {
		me := fmt.Sprintf("PAK-%02d", i)
		s := r1.Shard(me)
		if s < 0 || s >= 4 {
			t.Fatalf("Shard(%q) = %d out of range", me, s)
		}
		if s2 := r2.Shard(me); s2 != s {
			t.Fatalf("placement not deterministic: %q -> %d vs %d", me, s, s2)
		}
	}
	if NewRing(1).Shard("anything") != 0 {
		t.Fatal("single-shard ring must place everything on shard 0")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(4)
	counts := make([]int, 4)
	for c := 0; c < 10; c++ {
		for i := 0; i < 50; i++ {
			counts[r.Shard(fmt.Sprintf("C%d-%02d", c, i))]++
		}
	}
	for s, n := range counts {
		// 500 MEs over 4 shards: expect ~125 each; consistent hashing
		// with 128 vnodes should stay within a loose 2x band.
		if n < 60 || n > 250 {
			t.Fatalf("shard %d owns %d of 500 MEs — ring badly unbalanced: %v", s, n, counts)
		}
	}
}

// shardSet spins up n amigo servers behind a gateway for HTTP-level
// tests.
func shardSet(t *testing.T, n int) (*Gateway, []*amigo.Server, *httptest.Server) {
	t.Helper()
	servers := make([]*amigo.Server, n)
	backends := make([]http.Handler, n)
	for i := range servers {
		servers[i] = amigo.NewServer(nil)
		backends[i] = Mount(servers[i].Handler(), servers[i].AdminHandler())
	}
	gw := NewGateway(backends, Options{Obs: obs.NewRegistry()})
	hs := httptest.NewServer(gw)
	t.Cleanup(hs.Close)
	return gw, servers, hs
}

// driveME runs one ME through the full protocol via the gateway — its
// schedule, which creates it, then leases and uploads — and returns its
// uploaded results.
func driveME(t *testing.T, baseURL, me string) []amigo.Result {
	t.Helper()
	ep := &amigo.Endpoint{Name: me, BaseURL: baseURL}
	schedule := wire.AppendSchedule(nil, me, []amigo.Task{{Kind: "dns", Target: "8.8.8.8", Config: "sim"}, {Kind: "speedtest", Config: "esim"}})
	resp, err := http.Post(baseURL+"/admin/schedule", wire.ContentType, bytes.NewReader(schedule))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s schedule via gateway: HTTP %d", me, resp.StatusCode)
	}
	var out []amigo.Result
	for {
		tasks, err := ep.Lease(8)
		if err != nil {
			t.Fatalf("%s lease: %v", me, err)
		}
		if len(tasks) == 0 {
			break
		}
		var up []amigo.Result
		for _, task := range tasks {
			up = append(up, amigo.Result{TaskID: task.ID, ME: me, Kind: task.Kind, Config: task.Config, OK: true, Payload: []byte(`{"ok":1}`)})
		}
		if err := ep.Upload(up); err != nil {
			t.Fatalf("%s upload: %v", me, err)
		}
		out = append(out, up...)
	}
	return out
}

// TestGatewayRoutesBothProtocols drives MEs through the admin and the ME
// protocol — the frames the gateway peeks: schedule, lease, upload — and
// checks each ME and its results stayed on its ring shard.
func TestGatewayRoutesBothProtocols(t *testing.T) {
	gw, servers, hs := shardSet(t, 4)
	mes := []string{"PAK-00", "PAK-01", "GEO-00", "GEO-01", "USA-00", "USA-01"}
	want := 0
	for _, me := range mes {
		want += len(driveME(t, hs.URL, me))
	}
	// Every ME's results must have landed wholly on its ring shard.
	totalByShard := 0
	for i, srv := range servers {
		rs := srv.Results()
		totalByShard += len(rs)
		for _, res := range rs {
			if got := gw.Ring().Shard(res.ME); got != i {
				t.Fatalf("result for %s found on shard %d, ring says %d", res.ME, i, got)
			}
		}
	}
	if totalByShard != want {
		t.Fatalf("shards hold %d results, uploaded %d", totalByShard, want)
	}

	// Each ME is known to its ring shard alone.
	var gotMEs []string
	for i, srv := range servers {
		for _, me := range srv.MEs() {
			if got := gw.Ring().Shard(me); got != i {
				t.Fatalf("%s known to shard %d, ring says %d", me, i, got)
			}
			gotMEs = append(gotMEs, me)
		}
	}
	sort.Strings(gotMEs)
	wantMEs := append([]string(nil), mes...)
	sort.Strings(wantMEs)
	if !reflect.DeepEqual(gotMEs, wantMEs) {
		t.Fatalf("shards know MEs %v, want %v", gotMEs, wantMEs)
	}
}

// TestGatewayRoutesScheduleForms: POST /admin/schedule reaches the ME's
// ring shard by the MsgSchedule frame's ME, even though every shard knows
// every ME, and a schedule frame whose ME cannot be read is refused with
// 400 before any shard sees it.
func TestGatewayRoutesScheduleForms(t *testing.T) {
	reg := obs.NewRegistry()
	servers := make([]*amigo.Server, 4)
	backends := make([]http.Handler, len(servers))
	for i := range servers {
		servers[i] = amigo.NewServer(nil)
		backends[i] = Mount(servers[i].Handler(), servers[i].AdminHandler())
	}
	gw := NewGateway(backends, Options{Obs: reg})
	hs := httptest.NewServer(gw)
	defer hs.Close()
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/admin/schedule", wire.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	mes := []string{"PAK-00", "GEO-00", "USA-00", "USA-01", "DEU-00", "DEU-01"}
	for _, me := range mes {
		for _, srv := range servers {
			srv.ScheduleBatch(me, nil)
		}
		if code := post(wire.AppendSchedule(nil, me, []amigo.Task{{Kind: "dns", Config: "sim"}})); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", me, code)
		}
		for s, srv := range servers {
			want := 0
			if s == gw.Ring().Shard(me) {
				want = 1
			}
			tasks, err := srv.LeaseAckInto(me, 8, 0, nil)
			if err != nil || len(tasks) != want {
				t.Fatalf("%s: shard %d queued %d tasks (%v), want %d", me, s, len(tasks), err, want)
			}
		}
	}
	routed := func() (n int64) {
		for s := range servers {
			n += reg.Counter("gateway_requests_total", obs.L("shard", fmt.Sprint(s)), obs.L("route", "admin/schedule")).Value()
		}
		return n
	}
	before := routed()
	for name, body := range map[string][]byte{
		"empty-me":     wire.AppendSchedule(nil, "", []amigo.Task{{Kind: "dns"}}),
		"truncated-me": {wire.Magic0, wire.Magic1, wire.Version, wire.MsgSchedule, 0, 0, 0, 2, 0x05, 'm'},
	} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
	if n := routed() - before; n != 0 {
		t.Errorf("%d malformed schedule frames reached a shard", n)
	}
}

// TestGatewayRoutesLeaseVitals: a lease carrying vitals reaches the ME's
// ring shard, which records them, even though every shard knows every ME;
// POST /v1/status, which vitals replaced, is not routed to any shard, and
// neither are /v1/register and /v2/tasks/requeue, which scheduling and
// the redelivery lease replaced.
func TestGatewayRoutesLeaseVitals(t *testing.T) {
	gw, servers, hs := shardSet(t, 4)
	mes := []string{"PAK-00", "GEO-00", "USA-00", "USA-01", "DEU-00", "DEU-01"}
	for i, me := range mes {
		for _, srv := range servers {
			srv.ScheduleBatch(me, nil)
		}
		v := amigo.Vitals{Battery: 0.5, RSSI: -90 - float64(i), CQI: 9, RAT: "5G", ActiveID: "esim"}
		lease := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: me, Max: 1, Vitals: v})
		resp, err := http.Post(hs.URL+"/v3/tasks/lease", wire.ContentType, bytes.NewReader(lease))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("%s: lease with vitals: HTTP %d, want 204", me, resp.StatusCode)
		}
		for s, srv := range servers {
			want := amigo.Vitals{}
			if s == gw.Ring().Shard(me) {
				want = v
			}
			if got, _ := srv.Vitals(me); got != want {
				t.Fatalf("%s: shard %d holds vitals %+v, want %+v", me, s, got, want)
			}
		}
	}
	reg := gw.obs
	routed := func() (n int64) {
		for s := range servers {
			for _, name := range routeNames {
				n += reg.Counter("gateway_requests_total", obs.L("shard", fmt.Sprint(s)), obs.L("route", name)).Value()
			}
		}
		return n
	}
	for path, body := range map[string]string{
		"/v1/status":        `{"me":"PAK-00","vitals":{"cqi":1}}`,
		"/v1/register":      `{"me":"PAK-00","country":"PAK"}`,
		"/v2/tasks/requeue": `{"me":"PAK-00"}`,
	} {
		before := routed()
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || routed() != before {
			t.Errorf("POST %s: HTTP %d, %d requests routed; want 404 and none", path, resp.StatusCode, routed()-before)
		}
	}
}

func TestGatewayMergedResultsPagination(t *testing.T) {
	_, servers, hs := shardSet(t, 3)
	mes := []string{"PAK-00", "GEO-00", "USA-00", "FRA-00", "JPN-00"}
	uploaded := 0
	for _, me := range mes {
		uploaded += len(driveME(t, hs.URL, me))
	}

	// cursor=-1 returns just the global cursor.
	if _, next := getPage(t, hs.URL+"/admin/results?cursor=-1"); next != uploaded {
		t.Fatalf("global cursor = %d, want %d", next, uploaded)
	}

	// Page through with a small limit and check the merged stream equals
	// the per-shard logs concatenated in shard order.
	var want []amigo.Result
	for _, srv := range servers {
		want = append(want, srv.Results()...)
	}
	var got []amigo.Result
	cursor := 0
	for {
		rs, next := getPage(t, fmt.Sprintf("%s/admin/results?cursor=%d&limit=3", hs.URL, cursor))
		if len(rs) == 0 || next <= cursor {
			break
		}
		got = append(got, rs...)
		cursor = next
	}
	if !sameResults(got, want) {
		t.Fatalf("merged pagination yielded %d results that differ from the %d the shards hold", len(got), len(want))
	}
}

// getPage GETs one results page and decodes its frames.
func getPage(t *testing.T, url string) (rs []amigo.Result, next int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if next, err = strconv.Atoi(resp.Header.Get(wire.CursorHeader)); err != nil {
		t.Fatalf("GET %s: %s header: %v", url, wire.CursorHeader, err)
	}
	if rs, err = wire.NewDecoder().ReadResults(resp.Body, nil); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return rs, next
}

// blindSink is write-only: it forces the 501 path.
type blindSink struct{}

func (blindSink) Append([]amigo.Result) {}

func TestGatewayMergedResults501(t *testing.T) {
	srvOK := amigo.NewServer(nil)
	srvBlind := amigo.NewServer(nil, amigo.WithSink(blindSink{}))
	gw := NewGateway([]http.Handler{
		Mount(srvOK.Handler(), srvOK.AdminHandler()),
		Mount(srvBlind.Handler(), srvBlind.AdminHandler()),
	}, Options{})
	hs := httptest.NewServer(gw)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/admin/results?cursor=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("merged results over a blind shard: HTTP %d, want 501", resp.StatusCode)
	}
}

func TestGatewaySetBackendSwapsLive(t *testing.T) {
	gw, _, hs := shardSet(t, 2)
	me := "PAK-00"
	shard := gw.Ring().Shard(me)
	driveME(t, hs.URL, me)

	// Swap the owning shard for a fresh empty server: the ME is now
	// unknown there, and the lease route must answer 404.
	fresh := amigo.NewServer(nil)
	gw.SetBackend(shard, Mount(fresh.Handler(), fresh.AdminHandler()))
	frame := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: me, Max: 1})
	resp, err := http.Post(hs.URL+"/v3/tasks/lease", wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("lease after backend swap: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestGatewayV3BadFrames(t *testing.T) {
	_, _, hs := shardSet(t, 2)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"short", []byte("R3")},
		{"garbage", bytes.Repeat([]byte{0xff}, 32)},
		{"tasks-frame", wire.AppendTasks(nil, []wire.Task{{ID: 1, Kind: "dns", Config: "sim"}})},
	} {
		resp, err := http.Post(hs.URL+"/v3/results", wire.ContentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: HTTP %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestGatewayRouteCounters sends one request per mounted data-plane
// route through a 1-shard gateway and requires exactly that route's
// gateway_requests_total series to move: a route constant filed under
// another route's label would otherwise go unnoticed.
func TestGatewayRouteCounters(t *testing.T) {
	reg := obs.NewRegistry()
	srv := amigo.NewServer(nil)
	gw := NewGateway([]http.Handler{Mount(srv.Handler(), srv.AdminHandler())}, Options{Obs: reg})
	hs := httptest.NewServer(gw)
	defer hs.Close()

	schedule := wire.AppendSchedule(nil, "m", []amigo.Task{{Kind: "dns", Config: "sim"}})
	lease := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "m", Max: 1})
	results := wire.AppendResults(nil, []wire.Result{{TaskID: 1, ME: "m"}})
	cases := []struct {
		path  string
		body  []byte
		label string
	}{
		{"/admin/schedule", schedule, "admin/schedule"},
		{"/v3/tasks/lease", lease, "v3/lease"},
		{"/v3/results", results, "v3/results"},
	}
	if len(cases) != numRoutes {
		t.Fatalf("table covers %d routes, gateway mounts %d", len(cases), numRoutes)
	}
	counts := func() map[string]int64 {
		out := map[string]int64{}
		for _, name := range routeNames {
			out[name] = reg.Counter("gateway_requests_total", obs.L("shard", "0"), obs.L("route", name)).Value()
		}
		return out
	}
	for _, tc := range cases {
		before := counts()
		if code := post(t, hs.URL+tc.path, wire.ContentType, tc.body, false); code >= 300 {
			t.Fatalf("POST %s: HTTP %d", tc.path, code)
		}
		for name, after := range counts() {
			want := before[name]
			if name == tc.label {
				want++
			}
			if after != want {
				t.Errorf("POST %s: route=%q counter = %d, want %d", tc.path, name, after, want)
			}
		}
	}
}

// TestPOSTRoutesRefuseNonFrames: every POST route takes one v3 frame and
// nothing else. A body sent as application/json — JSON, or a well-formed
// frame under the wrong type — is 415 from one mounted server and through
// a 1-shard gateway alike, and queues, records and creates nothing.
func TestPOSTRoutesRefuseNonFrames(t *testing.T) {
	bodies := map[string][][]byte{
		"/admin/schedule": {[]byte(`{"me":"m","kind":"dns","config":"sim","count":2}`), wire.AppendSchedule(nil, "new", []amigo.Task{{Kind: "dns"}})},
		"/v3/tasks/lease": {[]byte(`{"me":"m","max":4}`), wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "m", Max: 4, Vitals: amigo.Vitals{CQI: 9}})},
		"/v3/results":     {[]byte(`{"results":[{"task_id":1,"me":"m"}]}`), wire.AppendResults(nil, []wire.Result{{TaskID: 1, ME: "m", Kind: "dns", OK: true}})},
	}
	for _, topo := range []string{"mount", "gateway"} {
		srv := amigo.NewServer(nil)
		srv.ScheduleBatch("m", []amigo.Task{{Kind: "dns", Config: "sim"}})
		var h http.Handler = Mount(srv.Handler(), srv.AdminHandler())
		if topo == "gateway" {
			h = NewGateway([]http.Handler{h}, Options{Obs: obs.NewRegistry()})
		}
		hs := httptest.NewServer(h)
		for route, forms := range bodies {
			for _, body := range forms {
				if code := post(t, hs.URL+route, "application/json", body, false); code != http.StatusUnsupportedMediaType {
					t.Errorf("%s: POST %s as JSON: HTTP %d, want 415", topo, route, code)
				}
			}
		}
		hs.Close()
		if mes := srv.MEs(); len(mes) != 1 || mes[0] != "m" {
			t.Errorf("%s: refused bodies left MEs %v, want only m", topo, mes)
		}
		if n := srv.Cursor(); n != 0 {
			t.Errorf("%s: refused bodies left %d results", topo, n)
		}
		if v, _ := srv.Vitals("m"); !v.IsZero() {
			t.Errorf("%s: a refused lease recorded vitals %+v", topo, v)
		}
		if tasks, err := srv.LeaseAckInto("m", 8, 0, nil); err != nil || len(tasks) != 1 {
			t.Errorf("%s: m's queue holds %d tasks (%v) after the refusals, want its 1", topo, len(tasks), err)
		}
	}
}
