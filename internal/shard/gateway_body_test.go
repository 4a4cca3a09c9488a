package shard

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// recordingBackend notes what the gateway handed a shard — the body
// bytes and the declared length — then serves the request from those
// bytes.
type recordingBackend struct {
	next http.Handler

	mu     sync.Mutex
	bodies [][]byte
	lens   []int64
}

func (b *recordingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b.mu.Lock()
	b.bodies = append(b.bodies, body)
	b.lens = append(b.lens, r.ContentLength)
	b.mu.Unlock()
	r.Body = io.NopCloser(bytes.NewReader(body))
	b.next.ServeHTTP(w, r)
}

// post sends body to url; chunked hides the length from net/http so the
// request goes out with Transfer-Encoding: chunked and no
// Content-Length.
func post(t *testing.T, url, contentType string, body []byte, chunked bool) int {
	t.Helper()
	var rd io.Reader = bytes.NewReader(body)
	if chunked {
		rd = struct{ io.Reader }{rd}
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestGatewayV3BodyShapes sends every v3 body shape to a bare
// amigo.Server and through a gateway in front of an identical one. The
// status code must match, and the shard must read exactly the bytes the
// client sent. The one deliberate difference is a body longer than its
// frame: a bare server reads one frame and ignores the rest; the
// gateway refuses it, because it forwards whole bodies and will not
// route bytes it has not framed.
func TestGatewayV3BodyShapes(t *testing.T) {
	const me = "PAK-00"
	results := func(n, payload int) []byte {
		rs := make([]wire.Result, n)
		for i := range rs {
			rs[i] = wire.Result{TaskID: i + 1, ME: me, Kind: "dns", Config: "sim", OK: true,
				Payload: bytes.Repeat([]byte{byte('a' + i)}, payload)}
		}
		return wire.AppendResults(nil, rs)
	}
	one := results(1, 8)
	cases := []struct {
		name        string
		path        string
		contentType string
		body        []byte
		chunked     bool
		refused     bool // the gateway answers 400 itself; nothing reaches the shard
		bareDiffers bool // the documented trailing-bytes difference
	}{
		{name: "lease", path: "/v3/tasks/lease", body: wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: me, Max: 4})},
		{name: "results-0", path: "/v3/results", body: results(0, 0)},
		{name: "results-1", path: "/v3/results", body: one},
		{name: "results-N", path: "/v3/results", body: results(40, 100)},
		{name: "first-record-over-pooled-buffer", path: "/v3/results", body: results(2, 96<<10)},
		{name: "trailing-byte", path: "/v3/results", body: append(append([]byte(nil), one...), 0), refused: true, bareDiffers: true},
		{name: "truncated-payload", path: "/v3/results", body: one[:len(one)-3], refused: true},
		{name: "chunked-no-content-length", path: "/v3/results", body: results(3, 50), chunked: true},
		{name: "chunked-over-pooled-buffer", path: "/v3/results", body: results(2, 96<<10), chunked: true},
		{name: "chunked-trailing-byte", path: "/v3/results", body: append(append([]byte(nil), one...), 0), chunked: true, refused: true, bareDiffers: true},
		{name: "wrong-content-type", path: "/v3/results", contentType: "application/json", body: one},
		{name: "wrong-type-for-route", path: "/v3/tasks/lease", body: one},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bare := amigo.NewServer(nil)
			bare.Register(me, "PAK")
			bareHS := httptest.NewServer(bare.Handler())
			defer bareHS.Close()

			sharded := amigo.NewServer(nil)
			sharded.Register(me, "PAK")
			rec := &recordingBackend{next: Mount(sharded.Handler(), sharded.AdminHandler())}
			gwHS := httptest.NewServer(NewGateway([]http.Handler{rec}, Options{Obs: obs.NewRegistry()}))
			defer gwHS.Close()

			ct := tc.contentType
			if ct == "" {
				ct = wire.ContentType
			}
			want := post(t, bareHS.URL+tc.path, ct, tc.body, tc.chunked)
			got := post(t, gwHS.URL+tc.path, ct, tc.body, tc.chunked)
			switch {
			case tc.refused && got != http.StatusBadRequest:
				t.Fatalf("gateway: HTTP %d, want 400", got)
			case !tc.bareDiffers && got != want:
				t.Fatalf("gateway: HTTP %d, bare server: HTTP %d", got, want)
			case tc.bareDiffers && want >= 300:
				t.Fatalf("bare server: HTTP %d — it no longer ignores trailing bytes; fold this case into the others", want)
			}
			if tc.refused {
				if len(rec.bodies) != 0 {
					t.Fatalf("a refused body reached the shard: %d bytes", len(rec.bodies[0]))
				}
				return
			}
			if len(rec.bodies) != 1 {
				t.Fatalf("shard saw %d requests, want 1", len(rec.bodies))
			}
			if !bytes.Equal(rec.bodies[0], tc.body) {
				t.Fatalf("shard read %d bytes that differ from the %d sent", len(rec.bodies[0]), len(tc.body))
			}
			if rec.lens[0] != int64(len(tc.body)) {
				t.Fatalf("shard saw Content-Length %d, body is %d bytes", rec.lens[0], len(tc.body))
			}
			if got, want := len(sharded.Results()), len(bare.Results()); got != want {
				t.Fatalf("shard accepted %d results, bare server %d", got, want)
			}
		})
	}
}

// TestGatewayOversizedBodiesRefusedFromTheirLength: a frame header
// declaring more than wire.MaxFrame is refused from the header alone —
// the body here is nothing but that header, so a gateway that went on to
// read the payload would block or fail differently — and a JSON body
// declaring more than the 64 MiB cap is refused from Content-Length.
func TestGatewayOversizedBodiesRefusedFromTheirLength(t *testing.T) {
	gw, _, _ := shardSet(t, 1)
	frame := wire.AppendResults(nil, []wire.Result{{TaskID: 1, ME: "m"}})
	hdr := append([]byte(nil), frame[:wire.HeaderLen]...)
	hdr[4], hdr[5], hdr[6], hdr[7] = 0x01, 0x00, 0x00, 0x01 // MaxFrame + 1
	if _, err := wire.ParseHeader(hdr); err == nil {
		t.Fatal("test header is not oversized")
	}
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v3/results", bytes.NewReader(hdr)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized frame header: HTTP %d, want 400", w.Code)
	}

	req := httptest.NewRequest(http.MethodPost, "/v1/register", bytes.NewReader([]byte(`{"me":"m"}`)))
	req.ContentLength = maxBody + 1
	w = httptest.NewRecorder()
	gw.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body: HTTP %d, want 413", w.Code)
	}
}

// TestGatewayJSONBodyShapes: the JSON routes' pooled read hands the
// shard the client's exact bytes whether or not the length was
// declared, including a body that outgrows the pooled buffer and one
// longer than the gateway presizes from a declared length.
func TestGatewayJSONBodyShapes(t *testing.T) {
	padded := func(n int) []byte {
		return []byte(`{"me":"PAK-00","country":"` + string(bytes.Repeat([]byte{'x'}, n)) + `"}`)
	}
	big, huge := padded(100<<10), padded(maxPresize+maxPresize/2)
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool
		want    int
	}{
		{"declared", []byte(`{"me":"PAK-00","country":"PAK"}`), false, http.StatusNoContent},
		{"chunked", []byte(`{"me":"PAK-00","country":"PAK"}`), true, http.StatusNoContent},
		{"declared-over-pooled-buffer", big, false, http.StatusNoContent},
		{"chunked-over-pooled-buffer", big, true, http.StatusNoContent},
		{"declared-over-presize", huge, false, http.StatusNoContent},
		{"empty", nil, false, http.StatusBadRequest},
		{"not-json", []byte("me=PAK-00"), false, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := amigo.NewServer(nil)
			rec := &recordingBackend{next: Mount(srv.Handler(), srv.AdminHandler())}
			hs := httptest.NewServer(NewGateway([]http.Handler{rec}, Options{Obs: obs.NewRegistry()}))
			defer hs.Close()
			if got := post(t, hs.URL+"/v1/register", "application/json", tc.body, tc.chunked); got != tc.want {
				t.Fatalf("HTTP %d, want %d", got, tc.want)
			}
			if tc.want >= 300 {
				if len(rec.bodies) != 0 {
					t.Fatal("a refused body reached the shard")
				}
				return
			}
			if len(rec.bodies) != 1 || !bytes.Equal(rec.bodies[0], tc.body) {
				t.Fatalf("shard did not read the %d bytes sent", len(tc.body))
			}
		})
	}
}

// TestGatewayConcurrentUploadsKeepTheirBytes uploads to every shard at
// once, many times over, through the pooled buffers. Each shard checks
// that every byte it reads belongs to an ME it owns — a buffer re-pooled
// while a backend still read it, or handed to two requests, shows up as
// foreign bytes here and as a data race under -race.
func TestGatewayConcurrentUploadsKeepTheirBytes(t *testing.T) {
	const shards, mes, rounds = 4, 16, 24
	ring := NewRing(shards)
	payload := func(me string, task int) []byte {
		// Sizes straddle the pooled buffer's capacity so grown and
		// ungrown buffers both cycle through the pool.
		return bytes.Repeat([]byte(fmt.Sprintf("%s/%d;", me, task)), 1+task%7*1500)
	}
	var bad sync.Map
	backends := make([]http.Handler, shards)
	served := make([]int, shards)
	var mu sync.Mutex
	for i := range backends {
		backends[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			runtime.Gosched() // let other requests take and return buffers first
			body, err := io.ReadAll(r.Body)
			if err != nil {
				bad.Store(fmt.Sprintf("shard %d: %v", i, err), true)
				return
			}
			_, frame, err := wire.ReadFrame(bytes.NewReader(body), nil)
			if err != nil {
				bad.Store(fmt.Sprintf("shard %d: %v", i, err), true)
				return
			}
			rs, err := wire.NewDecoder().Results(frame, nil)
			if err != nil || len(rs) == 0 {
				bad.Store(fmt.Sprintf("shard %d: decode: %v", i, err), true)
				return
			}
			for _, res := range rs {
				if ring.Shard(res.ME) != i {
					bad.Store(fmt.Sprintf("shard %d read a record of %s (shard %d)", i, res.ME, ring.Shard(res.ME)), true)
				}
				if !bytes.Equal(res.Payload, payload(res.ME, res.TaskID)) {
					bad.Store(fmt.Sprintf("shard %d: %s task %d payload corrupted", i, res.ME, res.TaskID), true)
				}
			}
			mu.Lock()
			served[i]++
			mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		})
	}
	hs := httptest.NewServer(NewGateway(backends, Options{Obs: obs.NewRegistry()}))
	defer hs.Close()

	var wg sync.WaitGroup
	for m := 0; m < mes; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			me := fmt.Sprintf("C%d-%02d", m%5, m)
			for round := 0; round < rounds; round++ {
				rs := []wire.Result{
					{TaskID: round, ME: me, Kind: "dns", Config: "sim", OK: true, Payload: payload(me, round)},
					{TaskID: round + 1, ME: me, Kind: "dns", Config: "sim", OK: true, Payload: payload(me, round+1)},
				}
				resp, err := http.Post(hs.URL+"/v3/results", wire.ContentType, bytes.NewReader(wire.AppendResults(nil, rs)))
				if err != nil {
					bad.Store(err.Error(), true)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					bad.Store(fmt.Sprintf("%s round %d: HTTP %d", me, round, resp.StatusCode), true)
				}
			}
		}()
	}
	wg.Wait()
	bad.Range(func(k, _ any) bool { t.Error(k); return true })
	total, busy := 0, 0
	for _, n := range served {
		total += n
		if n > 0 {
			busy++
		}
	}
	if total != mes*rounds {
		t.Fatalf("shards served %d uploads, want %d", total, mes*rounds)
	}
	if busy < 2 {
		t.Fatalf("only %d shard(s) saw traffic: %v", busy, served)
	}
}

// nopWriter is an http.ResponseWriter that costs nothing.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header       { return w.h }
func (nopWriter) WriteHeader(int)             {}
func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestGatewayRoutedUploadAllocs bounds what one routed upload costs the
// gateway itself — mux match, body read, peek, forward — with a backend
// that reads the body and allocates nothing. The body is not among the
// allocations: it lives in a pooled buffer.
func TestGatewayRoutedUploadAllocs(t *testing.T) {
	rs := make([]wire.Result, 64)
	for i := range rs {
		rs[i] = wire.Result{TaskID: i + 1, ME: "PAK-00", Kind: "dns", Config: "sim", OK: true, Payload: bytes.Repeat([]byte{'p'}, 300)}
	}
	frame := wire.AppendResults(nil, rs)
	sink := make([]byte, len(frame))
	read := 0
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.ReadFull(r.Body, sink)
		read += n
	})
	gw := NewGateway([]http.Handler{backend}, Options{Obs: obs.NewRegistry()})

	req := httptest.NewRequest(http.MethodPost, "/v3/results", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	var body bytes.Reader
	closer := io.NopCloser(&body)
	w := nopWriter{h: http.Header{}}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		body.Reset(frame)
		req.Body, req.ContentLength = closer, int64(len(frame))
		gw.ServeHTTP(w, req)
	})
	if read != (runs+1)*len(frame) {
		t.Fatalf("backend read %d bytes over %d uploads of %d", read, runs+1, len(frame))
	}
	// Measured 0 (2 under -race); the io.ReadAll + bytes.NewReader +
	// io.NopCloser path this replaced measured 15 for the same upload.
	if allocs > 5 {
		t.Fatalf("one routed upload allocates %.0f times, want <= 5", allocs)
	}
	t.Logf("allocs per routed upload: %.0f", allocs)
}
