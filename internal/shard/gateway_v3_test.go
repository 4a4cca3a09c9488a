package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/walsink"
	"roamsim/internal/wire"
)

// mergedGet reads one merged results page from the gateway in the given
// representation.
func mergedGet(t *testing.T, gw *Gateway, query string, v3 bool) (rs []amigo.Result, next, frames int) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, "/admin/results?"+query, nil)
	if v3 {
		req.Header.Set("Accept", wire.ContentType)
	}
	var resp memResponse
	gw.ServeHTTP(&resp, req)
	if resp.code != 0 && resp.code != http.StatusOK {
		t.Fatalf("GET %s (v3=%v): HTTP %d: %s", query, v3, resp.code, resp.body.String())
	}
	if !v3 {
		var page struct {
			Cursor  int            `json:"cursor"`
			Results []amigo.Result `json:"results"`
		}
		if err := json.Unmarshal(resp.body.Bytes(), &page); err != nil {
			t.Fatalf("GET %s: %v", query, err)
		}
		return page.Results, page.Cursor, 0
	}
	next, err := strconv.Atoi(resp.Header().Get(wire.CursorHeader))
	if err != nil {
		t.Fatalf("GET %s (v3): %s header: %v", query, wire.CursorHeader, err)
	}
	for rest := resp.body.Bytes(); len(rest) > 0; frames++ {
		h, err := wire.ParseHeader(rest)
		if err != nil {
			t.Fatalf("GET %s (v3): frame %d: %v", query, frames, err)
		}
		rest = rest[wire.HeaderLen+int(h.N):]
	}
	if rs, err = wire.NewDecoder().ReadResults(&resp.body, nil); err != nil {
		t.Fatalf("GET %s (v3): %v", query, err)
	}
	return rs, next, frames
}

// byShard splits a merged page into per-shard sequences, checking the
// merge kept shard order.
func byShard(t *testing.T, ring *Ring, rs []amigo.Result) [][]amigo.Result {
	t.Helper()
	out := make([][]amigo.Result, ring.Shards())
	last := 0
	for _, r := range rs {
		s := ring.Shard(r.ME)
		if s < last {
			t.Fatalf("merged page: shard %d result after shard %d", s, last)
		}
		last = s
		out[s] = append(out[s], r)
	}
	return out
}

// TestGatewayMergedResultsV3: the gateway's v3 merge — shard frames
// passed through after a look at their record counts — is the JSON merge
// in another codec. While four shards' logs grow under it (run under
// -race), every v3 page is a consistent snapshot: shard order, per ME the
// gap-free prefix 1..k, a cursor that counts the page, and per shard a
// prefix of what a later JSON merge returns. Once the logs are still, the
// two merges are equal result for result, cursor for cursor, at every
// cursor and limit. Two shards sit on WALs, one of them longer than a
// walsink page, so a merge also has to loop over a shard's bounded pages
// and carry more than one frame per shard.
func TestGatewayMergedResultsV3(t *testing.T) {
	const shards = 4
	sinks := make([]amigo.Sink, shards)
	backends := make([]http.Handler, shards)
	ring := NewRing(shards)
	for i := range sinks {
		if i%2 == 0 {
			sinks[i] = amigo.NewMemorySink()
		} else {
			wal, err := walsink.Open(t.TempDir(), walsink.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer wal.Close()
			sinks[i] = wal
		}
		srv := amigo.NewServer(nil, amigo.WithSink(sinks[i]))
		backends[i] = Mount(srv.Handler(), srv.AdminHandler())
	}
	gw := NewGateway(backends, Options{Obs: obs.NewRegistry()})

	mes := make([]string, shards)
	for i := range mes {
		for n := 0; mes[i] == ""; n++ {
			if me := fmt.Sprintf("me-%d-%d", i, n); ring.Shard(me) == i {
				mes[i] = me
			}
		}
	}
	// Shard 1's WAL starts out longer than one walsink page (5 000).
	const prefill = 5500
	seq := make([]int, shards)
	for len1 := 0; len1 < prefill; len1 += 500 {
		batch := make([]amigo.Result, 500)
		for j := range batch {
			seq[1]++
			batch[j] = wres(mes[1], seq[1])
		}
		sinks[1].Append(batch)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Bounded, so the logs (re-read from the front by every merge)
			// stay small enough for -race on a small box.
			for n := seq[i] + 1; n <= seq[i]+400; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sinks[i].Append([]amigo.Result{wres(mes[i], n)})
				time.Sleep(200 * time.Microsecond) // do not starve the reader
			}
		}()
	}

	for _, s := range sinks {
		for s.(amigo.CursorSink).Len() == 0 {
			time.Sleep(time.Millisecond) // until every shard has something to merge
		}
	}
	for read := 0; read < 6; read++ {
		v, vnext, frames := mergedGet(t, gw, "cursor=0", true)
		if vnext != len(v) {
			t.Fatalf("read %d: v3 cursor %d for %d results from cursor 0", read, vnext, len(v))
		}
		if frames < shards+1 {
			t.Fatalf("read %d: %d frames; want one per shard and two from the long WAL", read, frames)
		}
		vs := byShard(t, ring, v)
		for s, part := range vs {
			for k, r := range part {
				if r.TaskID != k+1 {
					t.Fatalf("read %d: shard %d result %d is task %d (duplicate or skip)", read, s, k, r.TaskID)
				}
			}
		}
		j, _, _ := mergedGet(t, gw, "cursor=0", false)
		for s, part := range byShard(t, ring, j) {
			if len(part) < len(vs[s]) || !sameResults(part[:len(vs[s])], vs[s]) {
				t.Fatalf("read %d: shard %d: the v3 merge is not a prefix of the later JSON merge", read, s)
			}
		}
	}
	close(stop)
	wg.Wait()

	total := 0
	for _, s := range sinks {
		total += s.(amigo.CursorSink).Len()
	}
	for _, cursor := range []int{-1, 0, prefill / 2, total + 9} {
		for _, limit := range []int{0, 1, prefill + 10} {
			q := fmt.Sprintf("cursor=%d&limit=%d", cursor, limit)
			j, jnext, _ := mergedGet(t, gw, q, false)
			v, vnext, _ := mergedGet(t, gw, q, true)
			if vnext != jnext || !sameResults(j, v) {
				t.Errorf("%s: v3 merge has %d results, next %d; JSON merge %d results, next %d — or their results differ",
					q, len(v), vnext, len(j), jnext)
			}
		}
	}
	if all, next, _ := mergedGet(t, gw, "cursor=0", true); len(all) != total || next != total {
		t.Errorf("the whole log over v3: %d results, next %d; want %d", len(all), next, total)
	}
}

// sameResults compares two result sequences field by field (upload
// stamps as instants: JSON and v3 carry them in different zones).
func sameResults(a, b []amigo.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Uploaded.Equal(y.Uploaded) {
			return false
		}
		x.Uploaded, y.Uploaded = time.Time{}, time.Time{}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// TestGatewayMergedResultsV3Refusals: the merged route's 400 and 501
// rules hold under Accept: v3 as they do for JSON, and a shard that
// answers a v3 page request with something else is a 502, not a page.
func TestGatewayMergedResultsV3Refusals(t *testing.T) {
	get := func(gw *Gateway, query string) int {
		req, _ := http.NewRequest(http.MethodGet, "/admin/results?"+query, nil)
		req.Header.Set("Accept", wire.ContentType)
		var resp memResponse
		gw.ServeHTTP(&resp, req)
		return resp.code
	}
	ok := amigo.NewServer(nil)
	ok.Submit([]amigo.Result{wres("me-a", 1), wres("me-a", 2)})
	okBackend := Mount(ok.Handler(), ok.AdminHandler())

	gw := NewGateway([]http.Handler{okBackend}, Options{})
	for _, q := range []string{"cursor=abc", "cursor=0&limit=x"} {
		if code := get(gw, q); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", q, code)
		}
	}

	blind := amigo.NewServer(nil, amigo.WithSink(blindSink{}))
	gw = NewGateway([]http.Handler{okBackend, Mount(blind.Handler(), blind.AdminHandler())}, Options{})
	if code := get(gw, "cursor=0"); code != http.StatusNotImplemented {
		t.Errorf("blind shard: HTTP %d, want 501", code)
	}

	// A backend that reports two results and then serves JSON whatever
	// the Accept header says.
	jsonOnly := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cursor") == "-1" {
			w.Header().Set(wire.CursorHeader, "2")
			return
		}
		w.Write([]byte(`{"cursor":2,"results":[{},{}]}`))
	})
	gw = NewGateway([]http.Handler{jsonOnly}, Options{})
	if code := get(gw, "cursor=0"); code != http.StatusBadGateway {
		t.Errorf("shard serving JSON to a v3 merge: HTTP %d, want 502", code)
	}
}
