package amigo

import (
	"bytes"
	"net/http"
	"sync"
	"testing"
	"time"

	"roamsim/internal/rng"
	"roamsim/internal/wire"
)

// TestV3EndToEnd runs the full register/lease/execute/upload loop over
// the binary protocol and checks the results landed server-side.
func TestV3EndToEnd(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	tasks := []Task{
		{Kind: "speedtest", Config: "esim"},
		{Kind: "dns", Config: "sim"},
		{Kind: "mtr", Target: "WhatsApp", Config: "esim"},
	}
	if _, err := srv.ScheduleBatch("me-PAK", tasks); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		n, err := ep.RunBatch(2)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total != len(tasks) {
		t.Fatalf("executed %d tasks, want %d", total, len(tasks))
	}
	rs := srv.Results()
	if len(rs) != len(tasks) {
		t.Fatalf("server retained %d results, want %d", len(rs), len(tasks))
	}
	for _, r := range rs {
		if r.ME != "me-PAK" || r.TaskID == 0 {
			t.Errorf("bad result: %+v", r)
		}
		if r.Uploaded.IsZero() {
			t.Errorf("result %d not stamped", r.TaskID)
		}
		if r.OK && len(r.Payload) == 0 {
			t.Errorf("result %d OK but empty payload", r.TaskID)
		}
	}
}

// TestV3LeaseAckRedelivery checks the ack-cursor semantics end to end
// over the wire: an unacked lease is re-delivered byte-identically.
func TestV3LeaseAckRedelivery(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	ids, err := srv.ScheduleBatch("me-PAK", []Task{
		{Kind: "dns", Config: "esim"}, {Kind: "dns", Config: "sim"},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ep.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].ID != ids[0] {
		t.Fatalf("lease = %+v", first)
	}
	// A second endpoint incarnation that never acked re-leases the same
	// tasks (fresh ack cursor, server redelivers outstanding).
	ep2 := NewEndpoint("me-PAK", ep.BaseURL, ep.Dep, rng.New(6))
	again, err := ep2.Lease(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0] != first[0] || again[1] != first[1] {
		t.Fatalf("redelivery mismatch: %+v vs %+v", again, first)
	}
}

// TestV3UploadIdempotency re-uploads the same batch and expects the
// duplicate to be dropped by its content-derived idempotency key.
func TestV3UploadIdempotency(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	batch := []Result{{TaskID: 7, ME: "me-PAK", Kind: "dns", Config: "esim", OK: true,
		Payload: []byte(`{"rtt_ms":3}`)}}
	if err := ep.Upload(batch); err != nil {
		t.Fatal(err)
	}
	if err := ep.Upload(batch); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Results()); got != 1 {
		t.Fatalf("server retained %d results, want 1 (dedup)", got)
	}
}

// TestV3Backpressure pins the shedding contract on POST /v3/results: a
// batch the bounded spool cannot absorb — because it alone exceeds the
// capacity, or because a stalled sink has left the spool full — is
// answered 429 with the configured Retry-After hint, and never reaches
// the sink.
func TestV3Backpressure(t *testing.T) {
	for _, tc := range []struct {
		name       string
		spoolCap   int
		batch      int
		retryAfter time.Duration
		wantHint   string
		stall      bool // wedge the sink and fill the spool before uploading
	}{
		{"oversized-batch", 2, 3, 3 * time.Second, "3", false},
		{"stalled-sink", 1, 1, 2 * time.Second, "2", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &gateSink{entered: make(chan struct{}), gate: make(chan struct{}), inner: NewMemorySink()}
			srv, ep, done := testbed(t, "PAK", WithSink(sink), WithSpoolCapacity(tc.spoolCap), WithRetryAfter(tc.retryAfter))
			defer done()
			var wg sync.WaitGroup
			sunk := 0
			if tc.stall {
				// The first upload occupies the sink (its spool slot
				// drains); a second submitter then spools its batch and
				// parks waiting to drain, leaving the spool full.
				sunk = 2
				wg.Add(2)
				go func() {
					defer wg.Done()
					_ = ep.Upload([]Result{{TaskID: 1, ME: "me-PAK", Kind: "dns", Config: "esim"}})
				}()
				<-sink.entered
				go func() {
					defer wg.Done()
					_ = srv.Submit([]Result{{TaskID: 2, ME: "me-PAK"}})
				}()
				waitFor(t, func() bool { return srv.SpoolDepth() == tc.spoolCap })
			}
			batch := make([]Result, tc.batch)
			for i := range batch {
				batch[i] = Result{TaskID: 3 + i, ME: "me-PAK", Kind: "dns", Config: "sim"}
			}
			req, _ := http.NewRequest(http.MethodPost, ep.BaseURL+"/v3/results", bytes.NewReader(wire.AppendResults(nil, batch)))
			req.Header.Set("Content-Type", wire.ContentType)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer DrainClose(resp)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429", resp.StatusCode)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.wantHint {
				t.Fatalf("Retry-After = %q, want %q", got, tc.wantHint)
			}
			close(sink.gate)
			wg.Wait()
			if got := sink.inner.Len(); got != sunk {
				t.Errorf("sink holds %d results, want %d: a rejected batch must not reach it", got, sunk)
			}
		})
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestV3RejectsBadRequests covers the negotiation and validation
// surface: wrong content type (415), garbage frames, wrong message
// type, and unknown MEs (404).
func TestV3RejectsBadRequests(t *testing.T) {
	_, ep, done := testbed(t, "PAK")
	defer done()

	post := func(path, ct string, body []byte) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ep.BaseURL+path, bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		DrainClose(resp)
		return resp
	}

	leaseFrame := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "me-PAK", Max: 2})
	resultFrame := wire.AppendResults(nil, []Result{{TaskID: 1, ME: "me-PAK"}})

	if resp := post("/v3/tasks/lease", "application/json", []byte(`{"me":"me-PAK"}`)); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("JSON to v3 lease: %d, want 415", resp.StatusCode)
	}
	if resp := post("/v3/results", "text/plain", resultFrame); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type to v3 results: %d, want 415", resp.StatusCode)
	}
	if resp := post("/v3/tasks/lease", wire.ContentType, []byte("XX garbage")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage frame: %d, want 400", resp.StatusCode)
	}
	if resp := post("/v3/tasks/lease", wire.ContentType, leaseFrame[:len(leaseFrame)-2]); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated frame: %d, want 400", resp.StatusCode)
	}
	// A results frame on the lease route is a type mismatch.
	if resp := post("/v3/tasks/lease", wire.ContentType, resultFrame); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("wrong message type: %d, want 400", resp.StatusCode)
	}
	// Empty ME is invalid even though the frame is well-formed.
	noME := wire.AppendLeaseRequest(nil, wire.LeaseRequest{Max: 2})
	if resp := post("/v3/tasks/lease", wire.ContentType, noME); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing ME: %d, want 400", resp.StatusCode)
	}
	ghost := wire.AppendLeaseRequest(nil, wire.LeaseRequest{ME: "ghost", Max: 2})
	if resp := post("/v3/tasks/lease", wire.ContentType, ghost); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown ME: %d, want 404", resp.StatusCode)
	}
}

// TestV3LeaseClampsMax: a huge Max must not drain more than
// maxLeaseBatch tasks in one response.
func TestV3LeaseClampsMax(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	batch := make([]Task, maxLeaseBatch+10)
	for i := range batch {
		batch[i] = Task{Kind: "dns", Config: "esim"}
	}
	if _, err := srv.ScheduleBatch("me-PAK", batch); err != nil {
		t.Fatal(err)
	}
	tasks, err := ep.Lease(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != maxLeaseBatch {
		t.Fatalf("leased %d tasks, want clamp at %d", len(tasks), maxLeaseBatch)
	}
}

// TestDetachPayloads pins the slab copy: detached payloads must not
// alias the original buffer.
func TestDetachPayloads(t *testing.T) {
	frame := wire.AppendResults(nil, []Result{
		{TaskID: 1, ME: "m", OK: true, Payload: []byte(`{"a":1}`)},
		{TaskID: 2, ME: "m", Error: "x"},
		{TaskID: 3, ME: "m", OK: true, Payload: []byte(`{"b":2}`)},
	})
	batch, err := wire.NewDecoder().Results(frame[wire.HeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	detachPayloads(batch)
	for i := range frame {
		frame[i] = 0xee // scribble over the frame buffer
	}
	if string(batch[0].Payload) != `{"a":1}` || string(batch[2].Payload) != `{"b":2}` {
		t.Fatalf("payloads still alias the frame buffer: %q %q", batch[0].Payload, batch[2].Payload)
	}
	if batch[1].Payload != nil {
		t.Fatalf("empty payload grew bytes: %q", batch[1].Payload)
	}
}
