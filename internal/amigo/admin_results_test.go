package amigo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"roamsim/internal/walsink"
	"roamsim/internal/wire"
)

// cursorSinks are the two CursorSink implementations the admin results
// route is served from.
var cursorSinks = []struct {
	name string
	open func(t *testing.T) CursorSink
}{
	{"memory", func(*testing.T) CursorSink { return NewMemorySink() }},
	{"wal", func(t *testing.T) CursorSink {
		s, err := walsink.Open(t.TempDir(), walsink.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}},
}

// seqResult fabricates the i-th result of a log, distinguishable in
// every field a page carries.
func seqResult(i int) Result {
	return Result{
		TaskID: i + 1, ME: fmt.Sprintf("me-%d", i%3), Kind: "dns", Config: "esim", OK: i%4 != 0,
		Error:    map[bool]string{true: "boom"}[i%4 == 0],
		Payload:  json.RawMessage(fmt.Sprintf(`{"n":%d}`, i)),
		Uploaded: time.Unix(1700000000, int64(i)).UTC(),
	}
}

// fillSink appends n results in batches of three.
func fillSink(sink Sink, n int) {
	for i := 0; i < n; i += 3 {
		var batch []Result
		for j := i; j < min(i+3, n); j++ {
			batch = append(batch, seqResult(j))
		}
		sink.Append(batch)
	}
}

// getResults GETs one page of /admin/results and decodes its frame.
func getResults(t *testing.T, h http.Handler, query string) (code int, rs []Result, next int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/results?"+query, nil))
	if rec.Code != http.StatusOK {
		return rec.Code, nil, 0
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("GET %s: Content-Type %q", query, ct)
	}
	next, err := strconv.Atoi(rec.Header().Get(wire.CursorHeader))
	if err != nil {
		t.Fatalf("GET %s: %s header: %v", query, wire.CursorHeader, err)
	}
	if rec.Body.Len() > wire.HeaderLen+wire.MaxFrame {
		t.Fatalf("GET %s: one frame of %d bytes exceeds MaxFrame", query, rec.Body.Len())
	}
	rs, err = wire.NewDecoder().ReadResults(rec.Body, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", query, err)
	}
	return rec.Code, rs, next
}

func sameResults(a, b []Result) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d results vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Uploaded.Equal(y.Uploaded) {
			return fmt.Errorf("result %d: uploaded %v vs %v", i, x.Uploaded, y.Uploaded)
		}
		x.Uploaded, y.Uploaded = time.Time{}, time.Time{}
		if !bytes.Equal(x.Payload, y.Payload) {
			return fmt.Errorf("result %d: payload %q vs %q", i, x.Payload, y.Payload)
		}
		x.Payload, y.Payload = nil, nil
		if fmt.Sprintf("%+v", x) != fmt.Sprintf("%+v", y) {
			return fmt.Errorf("result %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// TestAdminResultsV3MatchesJSON: the results page is one MsgResults
// frame that decodes to exactly what ResultsSince returns — same results,
// same order, same next cursor — for every cursor and limit, from both
// sinks; a malformed cursor or limit is 400 and a cursor-less sink 501;
// and a page that would not fit one frame is cut short, with a cursor
// that says where.
func TestAdminResultsV3MatchesJSON(t *testing.T) {
	const n, page = 10, 4
	for _, sk := range cursorSinks {
		t.Run(sk.name, func(t *testing.T) {
			sink := sk.open(t)
			fillSink(sink, n)
			srv := NewServer(nil, WithSink(sink))
			admin := srv.AdminHandler()
			for _, cursor := range []int{-1, 0, n / 2, n + 7} {
				for _, limit := range []int{0, 1, page} {
					q := fmt.Sprintf("cursor=%d&limit=%d", cursor, limit)
					code, rs, next := getResults(t, admin, q)
					if code != http.StatusOK {
						t.Fatalf("%s: HTTP %d", q, code)
					}
					want, wantNext := []Result(nil), srv.Cursor()
					if cursor >= 0 {
						want, wantNext = srv.ResultsSince(cursor, limit)
					}
					if err := sameResults(rs, want); err != nil {
						t.Errorf("%s: page differs from ResultsSince: %v", q, err)
					}
					if next != wantNext {
						t.Errorf("%s: next cursor %d, ResultsSince %d", q, next, wantNext)
					}
					// And it is the page the log holds there.
					wantLen := 0
					if cursor >= 0 && cursor < n {
						wantLen = n - cursor
						if limit > 0 {
							wantLen = min(wantLen, limit)
						}
					}
					if cursor >= 0 {
						wantNext = min(cursor, n) + wantLen
					}
					if len(rs) != wantLen || next != wantNext {
						t.Errorf("%s: %d results, next %d; want %d, next %d", q, len(rs), next, wantLen, wantNext)
					}
					for i, r := range rs {
						if r.TaskID != cursor+i+1 {
							t.Errorf("%s: result %d is task %d, want %d", q, i, r.TaskID, cursor+i+1)
						}
					}
				}
			}
			for _, q := range []string{"cursor=abc", "cursor=1.5", "cursor=0&limit=x"} {
				if code, _, _ := getResults(t, admin, q); code != http.StatusBadRequest {
					t.Errorf("%s: HTTP %d, want 400", q, code)
				}
			}
		})
	}

	blind := NewServer(nil, WithSink(writeOnlySink{})).AdminHandler()
	for _, q := range []string{"cursor=0", "cursor=-1", "cursor=abc"} {
		if code, _, _ := getResults(t, blind, q); code != http.StatusNotImplemented {
			t.Errorf("cursor-less sink, %s: HTTP %d, want 501", q, code)
		}
	}

	t.Run("cut at MaxFrame", testV3CutsAtMaxFrame)
}

type writeOnlySink struct{}

func (writeOnlySink) Append([]Result) {}

// testV3CutsAtMaxFrame: five 4 MiB results do not fit one frame. The
// page holds the three that do, its cursor says 3, and the next page
// picks up exactly there.
func testV3CutsAtMaxFrame(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, 4<<20)
	for _, sk := range cursorSinks {
		t.Run(sk.name, func(t *testing.T) {
			sink := sk.open(t)
			for i := 0; i < 5; i++ {
				r := seqResult(i)
				r.Payload = big
				sink.Append([]Result{r})
			}
			admin := NewServer(nil, WithSink(sink)).AdminHandler()
			var got []int
			cursor := 0
			for pages := 0; ; pages++ {
				code, rs, next := getResults(t, admin, fmt.Sprintf("cursor=%d", cursor))
				if code != http.StatusOK {
					t.Fatalf("cursor=%d: HTTP %d", cursor, code)
				}
				if next != cursor+len(rs) {
					t.Fatalf("cursor=%d: %d results but next cursor %d", cursor, len(rs), next)
				}
				if len(rs) == 0 {
					break
				}
				if pages == 0 && len(rs) != 3 {
					t.Errorf("first page holds %d results, want the 3 that fit %d bytes", len(rs), wire.MaxFrame)
				}
				for _, r := range rs {
					if len(r.Payload) != len(big) {
						t.Fatalf("task %d: payload of %d bytes", r.TaskID, len(r.Payload))
					}
					got = append(got, r.TaskID)
				}
				cursor = next
			}
			if fmt.Sprint(got) != "[1 2 3 4 5]" {
				t.Errorf("paged out tasks %v, want each of 1..5 once", got)
			}
		})
	}
}

// TestSinceHonoursLimit: both sinks serve the page they are asked for —
// limit=1 is one result and cursor+1, from every cursor — clamp what is
// out of range, and hand out pages that are the caller's own.
// (walsink's TestSinceStopsDecodingAtPage shows the WAL also stops
// reading its log where the page ends.)
func TestSinceHonoursLimit(t *testing.T) {
	const n = 10
	for _, sk := range cursorSinks {
		t.Run(sk.name, func(t *testing.T) {
			sink := sk.open(t)
			fillSink(sink, n)
			for cursor := 0; cursor < n; cursor++ {
				rs, next := sink.Since(cursor, 1)
				if len(rs) != 1 || next != cursor+1 || rs[0].TaskID != cursor+1 {
					t.Fatalf("Since(%d, 1) = %d results, next %d", cursor, len(rs), next)
				}
			}
			if rs, next := sink.Since(2, 5); len(rs) != 5 || next != 7 || cap(rs) > 5 {
				t.Errorf("Since(2, 5) = %d results (cap %d), next %d; want 5 (cap 5), next 7", len(rs), cap(rs), next)
			}
			if rs, next := sink.Since(8, 5); len(rs) != 2 || next != n {
				t.Errorf("Since(8, 5) = %d results, next %d; want 2, next %d", len(rs), next, n)
			}
			if rs, next := sink.Since(0, 0); len(rs) != n || next != n {
				t.Errorf("Since(0, 0) = %d results, next %d; want all %d", len(rs), next, n)
			}
			if rs, next := sink.Since(n+5, 3); len(rs) != 0 || next != n {
				t.Errorf("Since past the end = %d results, next %d; want 0, next %d", len(rs), next, n)
			}
			// The page is the caller's: writing to it must not reach the sink.
			rs, _ := sink.Since(0, 1)
			rs[0].ME = "scribbled"
			if again, _ := sink.Since(0, 1); again[0].ME != seqResult(0).ME {
				t.Error("a page handed out by Since aliases the sink's own storage")
			}
		})
	}
}

// TestMemorySinkAcrossChunks: batches that straddle MemorySink's chunks
// land whole and in order, and a page read across chunk boundaries is the
// log's run of results from its cursor.
func TestMemorySinkAcrossChunks(t *testing.T) {
	sink := NewMemorySink()
	n := 0
	for _, size := range []int{1, sinkChunk - 2, sinkChunk + 5, 0, 3 * sinkChunk, 7} {
		batch := make([]Result, size)
		for i := range batch {
			batch[i] = seqResult(n + i)
		}
		sink.Append(batch)
		n += size
	}
	if sink.Len() != n {
		t.Fatalf("Len = %d after %d results", sink.Len(), n)
	}
	for _, cursor := range []int{0, 1, sinkChunk - 1, sinkChunk, 2*sinkChunk + 3, n - 1} {
		for _, limit := range []int{0, 1, sinkChunk, 2*sinkChunk + 1} {
			rs, next := sink.Since(cursor, limit)
			want := n - cursor
			if limit > 0 {
				want = min(want, limit)
			}
			if len(rs) != want || next != cursor+want {
				t.Fatalf("Since(%d, %d) = %d results, next %d; want %d, next %d", cursor, limit, len(rs), next, want, cursor+want)
			}
			for i := range rs {
				if w := seqResult(cursor + i); rs[i].TaskID != w.TaskID || !bytes.Equal(rs[i].Payload, w.Payload) {
					t.Fatalf("Since(%d, %d)[%d] is task %d, want %d", cursor, limit, i, rs[i].TaskID, w.TaskID)
				}
			}
		}
	}
}
