package amigo

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"roamsim/internal/wire"
)

// TestScheduleCountBounded: POST /admin/schedule's single-kind form
// checks its ME (400 when missing) and its count (400 past
// wire.MaxScheduleCount), and builds tasks only after both. The 40-byte
// request that made the parent try to allocate 2³¹ tasks answers 400, and
// so does a count at the limit naming no ME, each having allocated under
// 1 MB and created no ME. A schedule frame of wire.MaxScheduleCount+1 tasks for a known ME
// answers 400 the same way and queues nothing; a count in bounds for a
// known ME is still scheduled.
func TestScheduleCountBounded(t *testing.T) {
	srv := NewServer(nil)
	srv.ScheduleBatch("me-PAK", nil)
	h := srv.AdminHandler()
	post := func(contentType, body string) (code int, allocated uint64) {
		req := httptest.NewRequest(http.MethodPost, "/admin/schedule", strings.NewReader(body))
		req.Header.Set("Content-Type", contentType)
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
		{`{"me":"","kind":"dns","count":65536}`, http.StatusBadRequest},
		{`{"kind":"dns","count":3}`, http.StatusBadRequest},
	} {
		code, allocated := post("application/json", c.body)
		if code != c.want {
			t.Errorf("%s: HTTP %d, want %d", c.body, code, c.want)
		}
		if allocated >= 1<<20 {
			t.Errorf("%s: the refusal allocated %d bytes", c.body, allocated)
		}
	}
	batch := make([]Task, wire.MaxScheduleCount+1)
	for i := range batch {
		batch[i].Kind = "dns"
	}
	if code, allocated := post(wire.ContentType, string(wire.AppendSchedule(nil, "me-PAK", batch))); code != http.StatusBadRequest || allocated >= 1<<20 {
		t.Errorf("frame of %d tasks: HTTP %d having allocated %d bytes, want 400 under 1 MB", len(batch), code, allocated)
	}
	if tasks, err := srv.LeaseAckInto("me-PAK", 10, 0, nil); err != nil || len(tasks) != 0 {
		t.Fatalf("the refused batch queued %d tasks (%v)", len(tasks), err)
	}
	if mes := srv.MEs(); !slices.Equal(mes, []string{"me-PAK"}) {
		t.Fatalf("the refused schedules left MEs %v, want only me-PAK", mes)
	}
	if code, _ := post("application/json", `{"me":"me-PAK","kind":"speedtest","config":"esim","count":3}`); code != http.StatusOK {
		t.Fatalf("in-bounds schedule: HTTP %d", code)
	}
	if tasks, err := srv.LeaseAckInto("me-PAK", 10, 0, nil); err != nil || len(tasks) != 3 {
		t.Fatalf("queued %d tasks (%v), want 3", len(tasks), err)
	}
}

// TestScheduleRejectsKindless: a schedule that names no task, or a task
// without a kind, answers 400 in both forms and queues nothing — queued,
// every such task executes into an "unknown task kind" error result.
func TestScheduleRejectsKindless(t *testing.T) {
	srv := NewServer(nil)
	srv.ScheduleBatch("m", nil)
	h := srv.AdminHandler()
	for _, c := range []struct{ name, contentType, body string }{
		{"json-batch", "application/json", `{"me":"m","tasks":[]}`},
		{"json-no-kind", "application/json", `{"me":"m"}`},
		{"json-empty-kind", "application/json", `{"me":"m","kind":"","count":2}`},
		{"frame-empty", wire.ContentType, string(wire.AppendSchedule(nil, "m", nil))},
		{"frame-kindless", wire.ContentType, string(wire.AppendSchedule(nil, "m", []Task{{Kind: "dns"}, {Config: "sim"}}))},
	} {
		req := httptest.NewRequest(http.MethodPost, "/admin/schedule", strings.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", c.name, rec.Code)
		}
	}
	if tasks, err := srv.LeaseAckInto("m", 10, 0, nil); err != nil || len(tasks) != 0 {
		t.Fatalf("the refused schedules queued %+v (%v)", tasks, err)
	}
}

// TestV3ResultsBoundedBeforeDecode: an upload frame declaring more
// results than the spool holds is refused as over capacity (429 +
// Retry-After) from its count alone. A 4 MiB frame of empty records
// declares ≈ 4 M results; sizing a []Result for them costs ≈ 1 GiB.
func TestV3ResultsBoundedBeforeDecode(t *testing.T) {
	srv := NewServer(nil)
	const n = 4<<20 - 4 // a 4-byte count, then n one-byte records: 4 MiB
	frame := []byte{wire.Magic0, wire.Magic1, wire.Version, wire.MsgResults, 0, 0, 0, 0}
	frame = binary.AppendUvarint(frame, n)
	frame = append(frame, make([]byte, n)...)
	binary.BigEndian.PutUint32(frame[4:], uint32(len(frame)-wire.HeaderLen))
	req := httptest.NewRequest(http.MethodPost, "/v3/results", bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentType)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Errorf("HTTP %d, Retry-After %q: want 429 with a hint", rec.Code, rec.Header().Get("Retry-After"))
	}
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated >= 16<<20 {
		t.Errorf("refusing a %d-byte frame allocated %d MiB", len(frame), allocated>>20)
	}
}

// TestJSONRoutesBoundBodies: the JSON control route refuses a body
// declared longer than wire.MaxJSONBody with 413, before reading it.
func TestJSONRoutesBoundBodies(t *testing.T) {
	srv := NewServer(nil)
	for _, c := range []struct {
		h    http.Handler
		path string
	}{
		{srv.AdminHandler(), "/admin/schedule"},
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
