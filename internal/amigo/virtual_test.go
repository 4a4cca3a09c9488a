package amigo

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
