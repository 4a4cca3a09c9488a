package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"roamsim/internal/rng"
)

func countingServer(t *testing.T) (*httptest.Server, *struct {
	sync.Mutex
	bodies []string
}) {
	t.Helper()
	seen := &struct {
		sync.Mutex
		bodies []string
	}{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		seen.Lock()
		seen.bodies = append(seen.bodies, string(b))
		seen.Unlock()
		io.WriteString(w, `{"ok":true,"padding":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`)
	}))
	t.Cleanup(hs.Close)
	return hs, seen
}

// roundTrips drives n sequential requests through a chaos transport and
// classifies each outcome.
func roundTrips(t *testing.T, inj *Injector, hs *httptest.Server, n int) (ok, errs, decodeFail int) {
	t.Helper()
	rt := inj.Transport("me-X", 0, hs.Client().Transport)
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v3/results", strings.NewReader(`{"n":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			errs++
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || len(body) == 0 {
			decodeFail++
			continue
		}
		ok++
	}
	return ok, errs, decodeFail
}

// TestTransportScheduleReplays pins the core determinism property: two
// injectors at the same seed produce identical fault schedules and
// identical per-request outcomes, request by request.
func TestTransportScheduleReplays(t *testing.T) {
	hs, _ := countingServer(t)
	cfg := Heavy()
	cfg.LatencyProb = 0 // keep the test fast; latency is timing-only anyway
	cfg.Crash = 0

	type outcome struct{ ok, errs, decodeFail int }
	var runs []outcome
	var traces []string
	for i := 0; i < 2; i++ {
		inj := NewInjector(42, cfg)
		ok, errs, decodeFail := roundTrips(t, inj, hs, 200)
		runs = append(runs, outcome{ok, errs, decodeFail})
		traces = append(traces, inj.TraceString())
	}
	if runs[0] != runs[1] {
		t.Errorf("outcomes differ across same-seed runs: %+v vs %+v", runs[0], runs[1])
	}
	if traces[0] != traces[1] {
		t.Errorf("fault traces differ across same-seed runs:\n%s\nvs\n%s", traces[0], traces[1])
	}
	if runs[0].errs == 0 || runs[0].decodeFail == 0 || runs[0].ok == 0 {
		t.Errorf("heavy config should produce a mix of outcomes, got %+v", runs[0])
	}
	// A different seed must yield a different schedule.
	other := NewInjector(43, cfg)
	roundTrips(t, other, hs, 200)
	if other.TraceString() == traces[0] {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestTransportDuplicateDelivery: a duplicated request reaches the
// server twice but the caller sees a single (second) response.
func TestTransportDuplicateDelivery(t *testing.T) {
	hs, seen := countingServer(t)
	cfg := Config{Duplicate: 1} // every request duplicated
	inj := NewInjector(1, cfg)
	ok, errs, decodeFail := roundTrips(t, inj, hs, 3)
	if ok != 3 || errs != 0 || decodeFail != 0 {
		t.Fatalf("outcomes = ok %d errs %d decode %d, want all ok", ok, errs, decodeFail)
	}
	seen.Lock()
	defer seen.Unlock()
	if len(seen.bodies) != 6 {
		t.Fatalf("server saw %d requests, want 6 (3 duplicated)", len(seen.bodies))
	}
	for _, b := range seen.bodies {
		if b != `{"n":1}` {
			t.Errorf("request body corrupted on resend: %q", b)
		}
	}
}

// TestTransportResetBeforeNeverReachesServer: reset-before faults must
// fail the request without any server-side effect.
func TestTransportResetBeforeNeverReachesServer(t *testing.T) {
	hs, seen := countingServer(t)
	inj := NewInjector(1, Config{ResetBefore: 1})
	_, errs, _ := roundTrips(t, inj, hs, 3)
	if errs != 3 {
		t.Fatalf("errs = %d, want 3", errs)
	}
	seen.Lock()
	defer seen.Unlock()
	if len(seen.bodies) != 0 {
		t.Fatalf("server saw %d requests, want 0", len(seen.bodies))
	}
}

// TestTransportResetAfterReachesServer: reset-after faults fail the
// request AFTER the server processed it — the half-open failure that
// forces idempotency.
func TestTransportResetAfterReachesServer(t *testing.T) {
	hs, seen := countingServer(t)
	inj := NewInjector(1, Config{ResetAfter: 1})
	_, errs, _ := roundTrips(t, inj, hs, 3)
	if errs != 3 {
		t.Fatalf("errs = %d, want 3", errs)
	}
	seen.Lock()
	defer seen.Unlock()
	if len(seen.bodies) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(seen.bodies))
	}
}

// TestTransportTruncationFailsDecode: truncated bodies end in
// ErrUnexpectedEOF, never a silent short read.
func TestTransportTruncationFailsDecode(t *testing.T) {
	hs, _ := countingServer(t)
	inj := NewInjector(1, Config{Truncate: 1})
	rt := inj.Transport("me-X", 0, hs.Client().Transport)
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v3/tasks/lease", nil)
	resp, err := rt.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read err = %v, want ErrUnexpectedEOF", err)
	}
}

// TestMaybeCrashBudgetAndDeterminism: crash decisions replay for a
// given seed and never exceed the per-ME cap.
func TestMaybeCrashBudgetAndDeterminism(t *testing.T) {
	cfg := Config{Crash: 0.5, MaxCrashes: 2}
	draw := func() (crashes int, pattern []bool) {
		inj := NewInjector(77, cfg)
		for round := 0; round < 40; round++ {
			c := inj.MaybeCrash("me-A", 0, round)
			pattern = append(pattern, c)
			if c {
				crashes++
			}
		}
		return crashes, pattern
	}
	c1, p1 := draw()
	c2, p2 := draw()
	if c1 != c2 {
		t.Fatalf("crash counts differ: %d vs %d", c1, c2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("crash pattern diverges at round %d", i)
		}
	}
	if c1 > cfg.MaxCrashes {
		t.Errorf("crashes = %d exceeds cap %d", c1, cfg.MaxCrashes)
	}
	if c1 == 0 {
		t.Error("P=0.5 over 40 rounds crashed zero times; stream looks broken")
	}
}

// TestMiddlewareSparesUnmarkedTraffic: requests without the ME header
// (admin, operators) are never stormed, even at 100% storm rates.
func TestMiddlewareSparesUnmarkedTraffic(t *testing.T) {
	inj := NewInjector(1, Config{Err5xx: 1})
	var reached int
	h := inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached++
		w.WriteHeader(http.StatusNoContent)
	}))
	// Unmarked request passes through.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/schedule", nil))
	if rec.Code != http.StatusNoContent || reached != 1 {
		t.Fatalf("unmarked request: code %d reached %d", rec.Code, reached)
	}
	// Marked request storms with Retry-After, before the handler runs.
	req := httptest.NewRequest(http.MethodPost, "/v3/results", nil)
	req.Header.Set(MEHeader, "me-A")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable || reached != 1 {
		t.Fatalf("marked request: code %d reached %d", rec.Code, reached)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("storm response missing Retry-After")
	}
}

// TestLatencySpikeRespectsContext: a latency spike must not outlive the
// request's context (the straggler watchdog depends on this).
func TestLatencySpikeRespectsContext(t *testing.T) {
	hs, _ := countingServer(t)
	inj := NewInjector(1, Config{LatencyProb: 1, LatencyMin: time.Hour, LatencyMax: 2 * time.Hour})
	rt := inj.Transport("me-X", 0, hs.Client().Transport)
	req, _ := http.NewRequest(http.MethodGet, hs.URL+"/x", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rt.RoundTrip(req.WithContext(ctx))
	if err == nil {
		t.Fatal("spiked request returned without error despite cancelled context")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestPooledDecisionsMatchStream: decisions drawn on recycled, reseeded
// sources are the ones rng.Stream(seed, label) gives, also while many
// goroutines share the pool (run under -race) — the fault schedule is a
// function of the seed and the labels, not of which source drew it.
func TestPooledDecisionsMatchStream(t *testing.T) {
	const seed, p = 77, 0.5
	inj := NewInjector(seed, Config{Crash: p, MaxCrashes: 1 << 30, Err5xx: p})
	storm := inj.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			me := fmt.Sprintf("me-%d", g)
			for round := 0; round < 200; round++ {
				want := rng.Stream(seed, fmt.Sprintf("chaos/crash/%s/0/%d", me, round)).Bool(p)
				if got := inj.MaybeCrash(me, 0, round); got != want {
					t.Errorf("%s round %d: MaybeCrash = %v, the unpooled stream says %v", me, round, got, want)
					return
				}
				req := httptest.NewRequest(http.MethodPost, "/v3/results", nil)
				req.Header.Set(MEHeader, me)
				rec := httptest.NewRecorder()
				storm.ServeHTTP(rec, req)
				want = rng.Stream(seed, fmt.Sprintf("chaos/mw/%s/POST /v3/results/%d", me, round+1)).Bool(p)
				if got := rec.Code == http.StatusServiceUnavailable; got != want {
					t.Errorf("%s request %d: stormed = %v, the unpooled stream says %v", me, round+1, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// recordingBase is an in-memory base transport: it reads each request's
// body to the end, keeps the bytes and the stated length, and answers 204.
type recordingBase struct {
	bodies  [][]byte
	lengths []int64
}

func (b *recordingBase) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	b.bodies = append(b.bodies, body)
	b.lengths = append(b.lengths, req.ContentLength)
	return &http.Response{StatusCode: http.StatusNoContent, Body: http.NoBody, Request: req}, nil
}

// rewindBody is a request body a test can send again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestTransportBuffersBodyOnce: the copy RoundTrip keeps for a possible
// duplicate is one buffer of the stated Content-Length, not io.ReadAll's
// grow-by-doubling; a duplicate re-sends exactly those bytes; and a body
// that does not state its length still arrives whole.
func TestTransportBuffersBodyOnce(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 5<<10/16) // an upload frame's size
	newReq := func(contentLength int64) (*http.Request, *rewindBody) {
		body := &rewindBody{}
		body.Reset(payload)
		req, err := http.NewRequest(http.MethodPost, "http://control.test/v3/results", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Body, req.ContentLength = body, contentLength
		return req, body
	}

	// Duplicate, and lengths stated (5 KiB) or unknown (-1, and 0 beside a
	// body, which net/http also reads as unknown): two identical deliveries
	// each, forwarded with the true length.
	for _, stated := range []int64{int64(len(payload)), -1, 0} {
		base := &recordingBase{}
		rt := NewInjector(1, Config{Duplicate: 1}).Transport("me-X", 0, base)
		req, _ := newReq(stated)
		if _, err := rt.RoundTrip(req); err != nil {
			t.Fatalf("Content-Length %d: %v", stated, err)
		}
		if len(base.bodies) != 2 {
			t.Fatalf("Content-Length %d: base saw %d requests, want the original and its duplicate", stated, len(base.bodies))
		}
		for i, got := range base.bodies {
			if !bytes.Equal(got, payload) || base.lengths[i] != int64(len(payload)) {
				t.Errorf("Content-Length %d: delivery %d carried %d bytes stated as %d, want the %d sent",
					stated, i, len(got), base.lengths[i], len(payload))
			}
		}
	}

	// A body shorter than it claims is an error, not a zero-padded frame.
	req, _ := newReq(int64(len(payload)) + 1)
	if _, err := NewInjector(1, Config{}).Transport("me-X", 0, &recordingBase{}).RoundTrip(req); err == nil {
		t.Error("a body shorter than its Content-Length went through")
	}

	// At the parent commit (c7840d0) this loop measured 27 allocations per
	// round trip, seven of them io.ReadAll growing its buffer from 512 B
	// past 5 KiB; an exactly-sized buffer is one, leaving 21 (22 under
	// -race, which makes the decision-source pool drop an entry now and
	// then).
	const parentAllocs = 27
	base := &recordingBase{}
	rt := NewInjector(1, Config{}).Transport("me-X", 0, base)
	req, body := newReq(int64(len(payload)))
	allocs := testing.AllocsPerRun(50, func() {
		body.Reset(payload)
		base.bodies, base.lengths = base.bodies[:0], base.lengths[:0]
		if _, err := rt.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(parentAllocs - 5); allocs > want {
		t.Errorf("one 5 KiB round trip allocates %.0f times, want at most %.0f (parent: %d)", allocs, want, parentAllocs)
	}
}
