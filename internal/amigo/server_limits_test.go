package amigo

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"roamsim/internal/wire"
)

// TestScheduleCountBounded: POST /admin/schedule's single-kind form
// checks its count first (400 past maxScheduleCount), then its ME (404
// when unknown), and builds tasks only after both. The 40-byte request
// that made the parent try to allocate 2³¹ tasks answers 400, and a count
// at the limit for an unknown ME answers 404, each having allocated under
// 1 MB. A batch of maxScheduleCount+1 tasks for a known ME answers 400
// and queues nothing; a count in bounds for a known ME is still scheduled.
func TestScheduleCountBounded(t *testing.T) {
	srv := NewServer(nil)
	srv.Register("me-PAK", "PAK")
	h := srv.AdminHandler()
	post := func(body string) (code int, allocated uint64) {
		req := httptest.NewRequest(http.MethodPost, "/admin/schedule", strings.NewReader(body))
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec.Code, after.TotalAlloc - before.TotalAlloc
	}
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"me":"ghost","kind":"dns","count":2147483647}`, http.StatusBadRequest},
		{`{"me":"me-PAK","kind":"dns","count":2147483647}`, http.StatusBadRequest},
		{`{"me":"ghost","kind":"dns","count":65536}`, http.StatusNotFound},
		{`{"me":"ghost","kind":"dns","count":3}`, http.StatusNotFound},
	} {
		code, allocated := post(c.body)
		if code != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.body, code, c.want)
		}
		if allocated >= 1<<20 {
			t.Errorf("%s: the refusal allocated %d bytes", c.body, allocated)
		}
	}
	// The batch form is held to the same cap; decoding it is bounded by
	// wire.MaxJSONBody alone, so its allocation is not checked.
	if code, _ := post(`{"me":"me-PAK","tasks":[{}` + strings.Repeat(`,{}`, maxScheduleCount) + `]}`); code != http.StatusBadRequest {
		t.Errorf("batch of %d tasks: HTTP %d, want 400", maxScheduleCount+1, code)
	}
	if tasks, err := srv.LeaseAckInto("me-PAK", 10, 0, nil); err != nil || len(tasks) != 0 {
		t.Fatalf("the refused batch queued %d tasks (%v)", len(tasks), err)
	}
	if code, _ := post(`{"me":"me-PAK","kind":"speedtest","config":"esim","count":3}`); code != http.StatusOK {
		t.Fatalf("in-bounds schedule: HTTP %d", code)
	}
	if tasks, err := srv.LeaseAckInto("me-PAK", 10, 0, nil); err != nil || len(tasks) != 3 {
		t.Fatalf("queued %d tasks (%v), want 3", len(tasks), err)
	}
}

// TestJSONRoutesBoundBodies: every JSON control route refuses a body
// declared longer than wire.MaxJSONBody with 413, before reading it.
func TestJSONRoutesBoundBodies(t *testing.T) {
	srv := NewServer(nil)
	for _, c := range []struct {
		h    http.Handler
		path string
	}{
		{srv.Handler(), "/v1/register"}, {srv.Handler(), "/v1/status"},
		{srv.Handler(), "/v2/tasks/requeue"}, {srv.AdminHandler(), "/admin/schedule"},
	} {
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(`{"me":"me-PAK"}`))
		req.ContentLength = wire.MaxJSONBody + 1
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: HTTP %d for an oversized body, want 413", c.path, rec.Code)
		}
	}
}

// TestAdminResultsNonJSONPayload: the server stores payloads unread, so a
// v3 upload whose payload is not JSON is accepted. The JSON results page
// cannot embed it and answers 500 naming the task — it used to answer 200
// with an empty body — while the v3 page serves both results as uploaded.
func TestAdminResultsNonJSONPayload(t *testing.T) {
	srv := NewServer(nil)
	batch := []Result{
		{TaskID: 7, ME: "me-PAK", Kind: "dns", Config: "esim", OK: true, Payload: []byte("not json")},
		{TaskID: 8, ME: "me-PAK", Kind: "dns", Config: "esim", OK: true, Payload: []byte(`{"resolver":"8.8.8.8"}`)},
	}
	req := httptest.NewRequest(http.MethodPost, "/v3/results", bytes.NewReader(wire.AppendResults(nil, batch)))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("v3 upload: HTTP %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/results?cursor=0", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "task 7 (me-PAK)") {
		t.Fatalf("JSON page: HTTP %d %q, want a 500 naming task 7", rec.Code, rec.Body)
	}
	code, rs, next := getResults(t, srv.AdminHandler(), "cursor=0", true)
	if code != http.StatusOK || next != 2 || len(rs) != 2 || string(rs[0].Payload) != "not json" {
		t.Fatalf("v3 page: HTTP %d, next %d, %d results", code, next, len(rs))
	}
}
