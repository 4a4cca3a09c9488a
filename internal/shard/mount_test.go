package shard

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/wire"
)

// TestMountRoutes pins what Mount answers for every route of the ME and
// admin APIs, and for what matches neither: a prefix without its slash,
// an unknown prefix, a path that is not clean (a ServeMux answered the
// last two 301), a route that is not served, a known route under the
// wrong method, which the inner mux refuses with 405, and a body not
// sent as a frame, which is 415.
func TestMountRoutes(t *testing.T) {
	srv := amigo.NewServer(nil)
	h := Mount(srv.Handler(), srv.AdminHandler())
	lease := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "me", Max: 1})
	upload := wire.AppendResults(nil, []wire.Result{{TaskID: 1, ME: "me", Kind: "dns", Config: "sim", OK: true}})
	schedule := wire.AppendSchedule(nil, "me", []amigo.Task{{Kind: "dns", Config: "sim"}})
	for _, tc := range []struct {
		method, path string
		body         []byte
		frame        bool
		want         int
	}{
		{"POST", "/admin/schedule", schedule, true, http.StatusOK},
		{"POST", "/v3/tasks/lease", lease, true, http.StatusOK},
		{"POST", "/v3/results", upload, true, http.StatusNoContent},
		{"POST", "/v1/register", []byte(`{"me":"me","country":"PAK"}`), false, http.StatusNotFound},
		{"POST", "/v2/tasks/requeue", []byte(`{"me":"me"}`), false, http.StatusNotFound},
		{"GET", "/admin/results?cursor=0", nil, false, http.StatusOK},
		{"GET", "/admin/mes", nil, false, http.StatusNotFound},
		{"GET", "/admin/metrics", nil, false, http.StatusOK},
		{"GET", "/admin/trace", nil, false, http.StatusOK},
		{"GET", "/v3/results", nil, false, http.StatusMethodNotAllowed},
		{"GET", "/admin/schedule", nil, false, http.StatusMethodNotAllowed},
		{"POST", "/admin/schedule", []byte(`{"me":"me","kind":"dns"}`), false, http.StatusUnsupportedMediaType},
		{"POST", "/v3", lease, true, http.StatusNotFound},
		{"POST", "/v4/tasks/lease", lease, true, http.StatusNotFound},
		{"GET", "/", nil, false, http.StatusNotFound},
		{"POST", "//v3/results", upload, true, http.StatusNotFound},
	} {
		req := httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body))
		if tc.frame {
			req.Header.Set("Content-Type", wire.ContentType)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.want, strings.TrimSpace(rec.Body.String()))
		}
	}
}

// TestMountAllocs: routing through Mount is free — a lease and an upload
// allocate exactly as many times through it as on the protocol handler
// alone.
func TestMountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	const runs = 200
	srv := amigo.NewServer(nil)
	if _, err := srv.ScheduleBatch("me", make([]amigo.Task, 4*(runs+1))); err != nil {
		t.Fatal(err)
	}
	mounted := Mount(srv.Handler(), srv.AdminHandler())
	for _, tc := range []struct {
		path string
		body []byte
		want int
	}{
		// Every lease acknowledges the ones before it: the server's
		// in-flight set stays flat.
		{"/v3/tasks/lease", wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "me", Max: 1, Ack: 1 << 30}), http.StatusOK},
		// The same key every time: after the first, the batch is a
		// duplicate and the log does not grow.
		{"/v3/results", wire.AppendResults(nil, []wire.Result{{TaskID: 1, ME: "me", Kind: "dns", Config: "sim", OK: true}}), http.StatusNoContent},
	} {
		allocs := func(h http.Handler) float64 {
			return testing.AllocsPerRun(runs, func() {
				req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
				req.Header.Set("Content-Type", wire.ContentType)
				req.Header.Set("Idempotency-Key", "k")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != tc.want {
					t.Fatalf("%s = %d, want %d", tc.path, rec.Code, tc.want)
				}
			})
		}
		direct, through := allocs(srv.Handler()), allocs(mounted)
		t.Logf("%s: %.0f allocations on the protocol handler, %.0f through Mount", tc.path, direct, through)
		if through != direct {
			t.Errorf("%s through Mount allocates %.0f times, the protocol handler alone %.0f", tc.path, through, direct)
		}
	}
}
