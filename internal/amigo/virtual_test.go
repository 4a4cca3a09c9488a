package amigo

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"roamsim/internal/rng"
	"roamsim/internal/vclock"
)

// TestUploadRetryAfterClampedVirtual is the virtual-clock regression
// for the Retry-After clamp. The real-time variant
// (TestUploadRetryAfterClamped) can only bound the elapsed time from
// above; on a virtual clock the backoff sleeps are exact events, so
// this test asserts the precise amount of time a hostile
// `Retry-After: 999999` is allowed to cost: (MaxAttempts-1) sleeps of
// exactly Backoff.Max each — not 999999 seconds of it.
func TestUploadRetryAfterClampedVirtual(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "999999") // ~11.6 days, per attempt
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer hs.Close()

	v := vclock.NewVirtual()
	const maxAttempts = 3
	const maxDelay = 2 * time.Second
	ep := &Endpoint{Name: "me", BaseURL: hs.URL, Client: hs.Client(), Clock: v,
		Retry: Backoff{MaxAttempts: maxAttempts, Base: time.Millisecond, Max: maxDelay}}

	errs := make(chan error, 1)
	v.Go(func() {
		errs <- ep.Upload([]Result{{TaskID: 1, ME: "me", Kind: "dns", OK: true}})
	})
	err := <-errs
	if err == nil {
		t.Fatal("Upload succeeded against an always-429 server")
	}
	if !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Errorf("error = %v, want attempt-budget failure", err)
	}
	if got := hits.Load(); got != maxAttempts {
		t.Errorf("server saw %d attempts, want %d", got, maxAttempts)
	}
	// The exact-cost assertion: every retry slept the clamped Max, no
	// more, no less — the virtual clock makes "clamped" checkable as an
	// equality instead of a generous upper bound.
	want := vclock.Instant(0).Add((maxAttempts - 1) * maxDelay)
	if got := v.Now(); got != want {
		t.Errorf("virtual elapsed = %v, want exactly %v (the clamped backoff schedule)",
			got.Duration(), want.Duration())
	}
}

// realizeFromJSON is how task durations were derived before execute
// computed them from the typed payload: by parsing the uploaded JSON
// back. It is the reference TestNetworkTimeMatchesUploadedPayload holds
// the typed computation to.
func realizeFromJSON(kind string, res Result) time.Duration {
	if !res.OK {
		return 0
	}
	var ms float64
	switch kind {
	case "speedtest":
		var p SpeedtestPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		ms = 2 * p.LatencyMs
		if p.DownMbps > 0 {
			ms += 8 * 16 / p.DownMbps * 1e3
		}
		if p.UpMbps > 0 {
			ms += 8 * 8 / p.UpMbps * 1e3
		}
	case "mtr":
		var p MTRPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		for _, h := range p.Hops {
			if h.RTTms > 0 {
				ms += 3 * h.RTTms
			} else {
				ms += 500
			}
		}
	case "cdn":
		var p CDNPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		ms = p.TotalMs
	case "dns":
		var p DNSPayload
		if json.Unmarshal(res.Payload, &p) != nil {
			return 0
		}
		ms = p.DurationMs
	case "video":
		ms = 120 * 1e3
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// TestNetworkTimeMatchesUploadedPayload: the time a realized task spends
// on the clock is a function of the payload it uploads and nothing else
// — to the nanosecond what parsing the uploaded JSON back would give, so
// a virtual campaign's makespan did not move when the re-parse went.
func TestNetworkTimeMatchesUploadedPayload(t *testing.T) {
	_, ep, done := testbed(t, "PAK")
	defer done()
	tasks := []Task{
		{Kind: "speedtest", Config: "esim"}, {Kind: "speedtest", Config: "sim"},
		{Kind: "mtr", Target: "Facebook", Config: "esim"}, {Kind: "mtr", Target: "Google", Config: "sim"},
		{Kind: "cdn", Target: "Cloudflare", Config: "esim"}, {Kind: "dns", Config: "esim"},
		{Kind: "video", Config: "esim"},
		{Kind: "dns", Config: "no-such-config"}, {Kind: "no-such-kind", Config: "esim"},
	}
	nonzero := 0
	for rep := 0; rep < 5; rep++ {
		for _, task := range tasks {
			res, spent := ep.execute(task)
			if want := realizeFromJSON(task.Kind, res); spent != want {
				t.Errorf("%s/%s: execute spends %v, the uploaded payload says %v", task.Kind, task.Config, spent, want)
			}
			if spent > 0 {
				nonzero++
			}
			if !res.OK && spent != 0 {
				t.Errorf("%s/%s: failed task spends %v", task.Kind, task.Config, spent)
			}
		}
	}
	if nonzero < 5*7 {
		t.Errorf("only %d of the successful tasks spent any network time", nonzero)
	}
}

// TestRunBatchRealizesOnce: a realized batch spends the sum of its tasks'
// network times — to the nanosecond — in one parking wait before its one
// upload, and a lone Execute still spends exactly its own task's.
func TestRunBatchRealizesOnce(t *testing.T) {
	srv, ep, done := testbed(t, "PAK")
	defer done()
	tasks := []Task{
		{Kind: "speedtest", Config: "esim"}, {Kind: "mtr", Target: "Google", Config: "sim"},
		{Kind: "cdn", Target: "Cloudflare", Config: "esim"}, {Kind: "dns", Config: "no-such-config"},
		{Kind: "dns", Config: "esim"}, {Kind: "video", Config: "esim"},
	}
	lone := Task{Kind: "speedtest", Config: "sim"}
	// The reference draws the same stream (testbed seeds it with 5) and
	// adds up what each task says it spent.
	ref := NewEndpoint(ep.Name, "", ep.Dep, rng.New(5))
	var wantBatch time.Duration
	for _, task := range tasks {
		_, d := ref.execute(task)
		wantBatch += d
	}
	_, wantLone := ref.execute(lone)
	if wantBatch < 120*time.Second || wantLone <= 0 {
		t.Fatalf("reference network times %v and %v are implausible", wantBatch, wantLone)
	}

	v := vclock.NewVirtual()
	ep.Clock, ep.Realize = v, true
	if err := ep.Register(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ScheduleBatch(ep.Name, tasks); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		n   int
		err error
	}
	ran := make(chan outcome, 1)
	v.Go(func() {
		n, err := ep.RunBatch(len(tasks))
		ran <- outcome{n, err}
	})
	if got := <-ran; got.err != nil || got.n != len(tasks) {
		t.Fatalf("RunBatch = %d, %v; want %d tasks", got.n, got.err, len(tasks))
	}
	if got := v.Now().Duration(); got != wantBatch {
		t.Errorf("batch advanced the clock by %v, its tasks' network times add up to %v", got, wantBatch)
	}
	if st := v.Stats(); st.Parks != 1 || st.Advances != 1 {
		t.Errorf("batch of %d tasks: %d parks, %d advances; want one wait", len(tasks), st.Parks, st.Advances)
	}
	if got := len(srv.Results()); got != len(tasks) {
		t.Errorf("server holds %d results, want %d", got, len(tasks))
	}

	executed := make(chan Result, 1)
	v.Go(func() { executed <- ep.Execute(lone) })
	if res := <-executed; !res.OK {
		t.Fatalf("Execute: %s", res.Error)
	}
	if got := v.Now().Duration() - wantBatch; got != wantLone {
		t.Errorf("lone Execute advanced the clock by %v, want its own task's %v", got, wantLone)
	}
}
