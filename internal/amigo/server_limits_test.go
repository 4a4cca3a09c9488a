package amigo

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"roamsim/internal/wire"
)

// TestScheduleCountBounded: POST /admin/schedule checks its ME (400 when
// missing) and its task count (400 past wire.MaxScheduleCount) before it
// builds tasks. A 12-byte frame declaring 2³¹ tasks answers 400, and so
// do a frame of wire.MaxScheduleCount+1 tasks for a known ME and one at
// the limit naming no ME, each having allocated under 1 MB, queued
// nothing and created no ME; a count in bounds for a known ME is still
// scheduled.
func TestScheduleCountBounded(t *testing.T) {
	srv := NewServer(nil)
	srv.ScheduleBatch("me-PAK", nil)
	h := srv.AdminHandler()
	post := func(body []byte) (code int, allocated uint64) {
		req := httptest.NewRequest(http.MethodPost, "/admin/schedule", bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentType)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		return rec.Code, after.TotalAlloc - before.TotalAlloc
	}
	dns := func(n int) []Task {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i].Kind = "dns"
		}
		return tasks
	}
	// A schedule for ghost whose task count claims 2³¹-1 and carries none.
	huge := wire.AppendSchedule(nil, "ghost", nil)
	huge = binary.AppendUvarint(huge[:len(huge)-1], 1<<31-1)
	binary.BigEndian.PutUint32(huge[4:], uint32(len(huge)-wire.HeaderLen))
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"count 2^31-1", huge},
		{"over the limit", wire.AppendSchedule(nil, "me-PAK", dns(wire.MaxScheduleCount+1))},
		{"no ME", wire.AppendSchedule(nil, "", dns(wire.MaxScheduleCount))},
	} {
		if code, allocated := post(c.body); code != http.StatusBadRequest || allocated >= 1<<20 {
			t.Errorf("%s: HTTP %d having allocated %d bytes, want 400 under 1 MB", c.name, code, allocated)
		}
	}
	if tasks, err := srv.LeaseAckInto("me-PAK", 10, 0, nil); err != nil || len(tasks) != 0 {
		t.Fatalf("the refused batch queued %d tasks (%v)", len(tasks), err)
	}
	if mes := srv.MEs(); !slices.Equal(mes, []string{"me-PAK"}) {
		t.Fatalf("the refused schedules left MEs %v, want only me-PAK", mes)
	}
	if code, _ := post(wire.AppendSchedule(nil, "me-PAK", dns(3))); code != http.StatusOK {
		t.Fatalf("in-bounds schedule: HTTP %d", code)
	}
	if tasks, err := srv.LeaseAckInto("me-PAK", 10, 0, nil); err != nil || len(tasks) != 3 {
		t.Fatalf("queued %d tasks (%v), want 3", len(tasks), err)
	}
}

// TestScheduleRejectsKindless: a schedule that names no task, or a task
// without a kind, answers 400 and queues nothing — queued, every such
// task executes into an "unknown task kind" error result.
func TestScheduleRejectsKindless(t *testing.T) {
	srv := NewServer(nil)
	srv.ScheduleBatch("m", nil)
	h := srv.AdminHandler()
	for _, c := range []struct {
		name string
		body []byte
	}{
		{"frame-empty", wire.AppendSchedule(nil, "m", nil)},
		{"frame-kindless", wire.AppendSchedule(nil, "m", []Task{{Kind: "dns"}, {Config: "sim"}})},
	} {
		req := httptest.NewRequest(http.MethodPost, "/admin/schedule", bytes.NewReader(c.body))
		req.Header.Set("Content-Type", wire.ContentType)
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

// TestAdminResultsNonJSONPayload: the server stores payloads unread, so an
// upload whose payload is not JSON is accepted, and the results page
// serves both results as uploaded.
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
		t.Fatalf("upload: HTTP %d", rec.Code)
	}
	code, rs, next := getResults(t, srv.AdminHandler(), "cursor=0")
	if code != http.StatusOK || next != 2 || len(rs) != 2 || string(rs[0].Payload) != "not json" || string(rs[1].Payload) != string(batch[1].Payload) {
		t.Fatalf("page: HTTP %d, next %d, %d results", code, next, len(rs))
	}
}
