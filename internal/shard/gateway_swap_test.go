package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
)

// TestGatewayPauseResume: Pause drains in-flight requests and blocks
// new ones; Resume swaps in a topology with a different shard count and
// unblocks them against the new ring.
func TestGatewayPauseResume(t *testing.T) {
	gw, _, hs := shardSet(t, 1)
	driveME(t, hs.URL, "PAK-00")

	gw.Pause()
	started := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		close(started)
		resp, err := http.Get(hs.URL + "/admin/mes")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-started
	select {
	case code := <-done:
		t.Fatalf("request completed (HTTP %d) while gateway was paused", code)
	case <-time.After(50 * time.Millisecond):
	}

	// Resume onto a 3-shard topology.
	servers := make([]*amigo.Server, 3)
	backends := make([]http.Handler, 3)
	for i := range servers {
		servers[i] = amigo.NewServer(nil)
		backends[i] = Mount(servers[i].Handler(), servers[i].AdminHandler())
	}
	gw.Resume(backends)
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("gated request finished with HTTP %d after resume", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gated request never completed after Resume")
	}
	if got := gw.Ring().Shards(); got != 3 {
		t.Fatalf("Ring().Shards() = %d after resume, want 3", got)
	}
	// The data plane routes by the new ring: an ME lands on its new
	// owning shard's server.
	me := "GEO-42"
	driveME(t, hs.URL, me)
	owner := gw.Ring().Shard(me)
	if got := len(servers[owner].Results()); got == 0 {
		t.Fatalf("no results on shard %d, the new ring's owner of %s", owner, me)
	}
}

// TestGatewayBadCursor400 covers the malformed-cursor satellite fix on
// both handlers: the gateway's merged route and amigo's AdminHandler
// must answer 400 rather than silently replaying the log from 0.
func TestGatewayBadCursor400(t *testing.T) {
	_, _, hs := shardSet(t, 2)
	driveME(t, hs.URL, "PAK-00")

	srv := amigo.NewServer(nil)
	admin := httptestServer(t, srv.AdminHandler())

	for _, q := range []string{"cursor=abc", "cursor=1e3", "cursor=7&limit=x", "limit=--1"} {
		for _, base := range []string{hs.URL, admin} {
			resp, err := http.Get(base + "/admin/results?" + q)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("GET %s/admin/results?%s = HTTP %d, want 400", base, q, resp.StatusCode)
			}
		}
	}
	// Well-formed cursors (including the probe form) still work.
	for _, q := range []string{"", "cursor=0", "cursor=-1", "cursor=1&limit=1"} {
		for _, base := range []string{hs.URL, admin} {
			resp, err := http.Get(base + "/admin/results?" + q)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s/admin/results?%s = HTTP %d, want 200", base, q, resp.StatusCode)
			}
		}
	}
}

// TestMergedResultsConcurrentAppend is the merged-read race regression:
// while every shard's log grows concurrently, each single merged read
// must still be a consistent snapshot — zero duplicates, and per ME an
// uninterrupted prefix (no skipped records). Run under -race this also
// exercises the topology/gate synchronization.
func TestMergedResultsConcurrentAppend(t *testing.T) {
	const shards = 3
	sinks := make([]amigo.Sink, shards)
	backends := make([]http.Handler, shards)
	ring := NewRing(shards)
	for i := range sinks {
		sinks[i] = amigo.NewMemorySink()
		srv := amigo.NewServer(nil, amigo.WithSink(sinks[i]))
		backends[i] = Mount(srv.Handler(), srv.AdminHandler())
	}
	gw := NewGateway(backends, Options{Obs: obs.NewRegistry()})

	// One ME per shard, appending hard in the background.
	mes := make([]string, shards)
	for i := 0; i < shards; i++ {
		for n := 0; ; n++ {
			me := fmt.Sprintf("me-%d-%d", i, n)
			if ring.Shard(me) == i {
				mes[i] = me
				break
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for seq := 1; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				sinks[i].Append([]amigo.Result{wres(mes[i], seq)})
				// Yield so the reader is not starved on small machines;
				// the race window (append between probe and page reads)
				// stays wide open.
				time.Sleep(100 * time.Microsecond)
			}
		}(i)
	}

	for read := 0; read < 100; read++ {
		var resp memResponse
		// Page with a limit so each read is O(limit) even as the logs
		// grow; the snapshot clamp is exercised on every page boundary.
		req, _ := http.NewRequest(http.MethodGet, "/admin/results?limit=2000", nil)
		gw.ServeHTTP(&resp, req)
		if resp.code != 0 && resp.code != http.StatusOK {
			t.Fatalf("merged read %d: HTTP %d: %s", read, resp.code, resp.body.String())
		}
		var page resultsPage
		if err := json.Unmarshal(resp.body.Bytes(), &page); err != nil {
			t.Fatalf("merged read %d: %v", read, err)
		}
		// Shard-order concatenation, and per ME the TaskIDs must be the
		// gap-free prefix 1..k: a duplicate or a skipped record breaks
		// the sequence.
		lastShard := 0
		next := map[string]int{}
		for _, raw := range page.Results {
			var r amigo.Result
			if err := json.Unmarshal(raw, &r); err != nil {
				t.Fatal(err)
			}
			s := ring.Shard(r.ME)
			if s < lastShard {
				t.Fatalf("merged read %d: shard %d result after shard %d", read, s, lastShard)
			}
			lastShard = s
			if want := next[r.ME] + 1; r.TaskID != want {
				t.Fatalf("merged read %d: %s got TaskID %d, want %d (duplicate or skip)", read, r.ME, r.TaskID, want)
			}
			next[r.ME] = r.TaskID
		}
		if page.Cursor != len(page.Results) {
			t.Fatalf("merged read %d: cursor %d for %d results from cursor 0", read, page.Cursor, len(page.Results))
		}
	}
	close(stop)
	wg.Wait()
}

func httptestServer(t *testing.T, h http.Handler) string {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs.URL
}
