// Package chaos is a seeded, deterministic fault-injection layer for
// the AmiGo fleet control plane. The paper's measurement campaigns ran
// over flaky real-world cellular links — MEs dropped off, uploads
// stalled mid-transfer, and the control plane had to tolerate all of it.
// chaos reproduces that hostility on the loopback testbed so the fleet
// layer can prove a stronger property than "it usually works": with
// retries, redelivery and idempotent uploads in place, a chaos run must
// ingest the *byte-identical* dataset a clean run does. Faults may cost
// round trips, never data.
//
// # Fault model
//
// Client side (an http.RoundTripper wrapped around each ME's transport):
//
//   - latency spikes: the request stalls for a bounded random duration
//   - connection reset before send: the request never reaches the server
//   - connection reset after send: the server processed the request but
//     the response is lost — the dangerous half-open failure that forces
//     idempotency on the server
//   - response truncation: the body is cut mid-stream, so decoding fails
//   - duplicate delivery: the request is transparently sent twice, as a
//     retrying middlebox would
//
// Server side (middleware in front of the control-server handler):
//
//   - 5xx storms: requests are rejected with 503 before processing
//   - 429 storms: requests are shed with 429 + Retry-After
//
// ME lifecycle (decided by the fleet driver via MaybeCrash): mid-campaign
// crash/restart — the ME process dies between task batches and is
// restarted from scratch, replaying its schedule from its original rng
// stream.
//
// # Determinism
//
// Every decision is drawn from a stateless labeled stream
// (rng.Stream(seed, label), replayed on a pooled source — see stream)
// whose label encodes the ME name, its
// incarnation (restart count), the operation ("POST /v3/tasks/lease"),
// and the per-operation wire attempt. An ME issues its requests
// sequentially, so its label sequence — and therefore its fault
// schedule — is a pure function of the seed, independent of worker
// counts, GOMAXPROCS, or goroutine interleaving. Server-side storms key
// on the same identity (carried in an X-Chaos-ME request header the
// transport injects) with a per-(ME, op) counter, so they replay
// identically too. Events() returns the full schedule in canonical
// order; two runs at the same seed produce equal traces.
//
// The one escape hatch is the fleet driver's straggler watchdog: if it
// fires (wall-clock timeouts, off by default in tests), the extra
// incarnation changes the fault trace — but never the ingested dataset,
// because replay + dedup make restarts data-free.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"roamsim/internal/rng"
	"roamsim/internal/vclock"
)

// MEHeader carries the measurement endpoint's identity on chaos-wrapped
// requests so server-side middleware can key its fault streams per ME.
const MEHeader = "X-Chaos-ME"

// Config sets per-decision fault probabilities. The zero value injects
// nothing.
type Config struct {
	// ResetBefore is P(connection reset before the request is sent);
	// the server never sees the request.
	ResetBefore float64
	// ResetAfter is P(connection reset after the server replied); the
	// request took effect but the client sees a transport error.
	ResetAfter float64
	// Truncate is P(the response body is cut mid-stream) for responses
	// that carry one.
	Truncate float64
	// Duplicate is P(the request is delivered twice back to back).
	Duplicate float64
	// LatencyProb is P(a latency spike stalls the request) for a
	// duration uniform in [LatencyMin, LatencyMax].
	LatencyProb            float64
	LatencyMin, LatencyMax time.Duration
	// Err5xx is P(the server middleware rejects the request with 503
	// before processing it).
	Err5xx float64
	// Err429 is P(the server middleware sheds the request with 429 +
	// Retry-After before processing it).
	Err429 float64
	// Crash is P(the ME crashes after completing a task batch),
	// sampled once per batch round by the fleet driver.
	Crash float64
	// MaxCrashes caps injected crashes per ME (default 1 when Crash>0)
	// so campaigns always terminate.
	MaxCrashes int
	// ShardKill is P(a control-plane shard dies after accepting an
	// upload), sampled once per accepted upload by the sharded fleet
	// harness. A killed shard loses all in-memory state (registry,
	// queues, idempotency keys) and comes back as a fresh server wired
	// to its surviving WAL.
	ShardKill float64
	// MaxShardKills caps injected shard kills fleet-wide (default 1
	// when ShardKill>0) so campaigns always terminate.
	MaxShardKills int
	// CompactKill is P(a shard's process dies mid-WAL-compaction),
	// sampled at each crash point the compactor exposes (after the
	// rewritten segment is staged, and after it is renamed in but
	// before the sources are retired). A compact-killed shard loses its
	// in-memory state like a shard kill; recovery additionally has to
	// resolve the half-finished compaction artifacts on reopen.
	CompactKill float64
	// MaxCompactKills caps injected compaction kills fleet-wide
	// (default 1 when CompactKill>0) so campaigns always terminate.
	MaxCompactKills int
}

// Light is a mild preset: occasional resets, latency and storms, one
// crash allowed per ME.
func Light() Config {
	return Config{
		ResetBefore: 0.02, ResetAfter: 0.02, Truncate: 0.02, Duplicate: 0.03,
		LatencyProb: 0.05, LatencyMin: 200 * time.Microsecond, LatencyMax: 2 * time.Millisecond,
		Err5xx: 0.03, Err429: 0.02,
		Crash: 0.05, MaxCrashes: 1,
	}
}

// Heavy is a hostile preset: every fault kind at aggressive rates, two
// crashes allowed per ME.
func Heavy() Config {
	return Config{
		ResetBefore: 0.06, ResetAfter: 0.06, Truncate: 0.06, Duplicate: 0.08,
		LatencyProb: 0.12, LatencyMin: 200 * time.Microsecond, LatencyMax: 3 * time.Millisecond,
		Err5xx: 0.08, Err429: 0.05,
		Crash: 0.15, MaxCrashes: 2,
	}
}

func (c Config) maxCrashes() int {
	if c.MaxCrashes > 0 {
		return c.MaxCrashes
	}
	if c.Crash > 0 {
		return 1
	}
	return 0
}

func (c Config) maxShardKills() int {
	if c.MaxShardKills > 0 {
		return c.MaxShardKills
	}
	if c.ShardKill > 0 {
		return 1
	}
	return 0
}

func (c Config) maxCompactKills() int {
	if c.MaxCompactKills > 0 {
		return c.MaxCompactKills
	}
	if c.CompactKill > 0 {
		return 1
	}
	return 0
}

// Event is one injected fault. The trace of all events in canonical
// order is the campaign's fault schedule.
type Event struct {
	ME      string `json:"me"`
	Inc     int    `json:"inc"`     // ME incarnation (0 = first run)
	Op      string `json:"op"`      // "POST /v3/results", "crash", ...
	Attempt int    `json:"attempt"` // per-(ME, op) wire attempt / batch round
	Fault   string `json:"fault"`   // "reset-before", "truncate", "503", ...
}

func (e Event) String() string {
	return fmt.Sprintf("%s#%d %s attempt=%d %s", e.ME, e.Inc, e.Op, e.Attempt, e.Fault)
}

// Injector derives and records one campaign's fault schedule. One
// Injector serves every ME transport and the server middleware, so a
// single seed governs the whole run.
type Injector struct {
	seed int64
	cfg  Config

	mu           sync.Mutex
	events       []Event
	meSeq        map[string]int // per-ME append order, for canonical sorting
	crashes      map[string]int // injected crashes so far, per ME
	mwSeen       map[string]int // per-(ME, op) middleware attempt counters
	faults       map[string]int // injected faults so far, per kind
	shardKills   int            // injected shard kills so far, fleet-wide
	compactKills int            // injected compaction kills so far, fleet-wide
	clk          vclock.Clock   // latency-spike time source (nil = wall)
}

// FaultKinds are the fault labels an Injector can record, in canonical
// order — the label set for per-kind fault metrics (see Counts).
var FaultKinds = []string{
	"latency", "reset-before", "reset-after", "duplicate", "truncate",
	"crash", "shard-kill", "compact-kill", "503", "429",
}

// NewInjector returns an Injector for the given seed and fault config.
func NewInjector(seed int64, cfg Config) *Injector {
	return &Injector{
		seed: seed, cfg: cfg,
		meSeq:   map[string]int{},
		crashes: map[string]int{},
		mwSeen:  map[string]int{},
		faults:  map[string]int{},
	}
}

// Seed returns the fault-schedule seed.
func (inj *Injector) Seed() int64 { return inj.seed }

// sources recycles the rng.Source every decision draws from. A decision
// needs rng.Stream(seed, label) for a handful of draws, and a fresh
// math/rand source costs ≈ 5 KB to allocate and seed — per request, on
// both sides of the wire. Reseeding a recycled source yields the same
// stream draw for draw; the pool is lock-free on the request path.
var sources = sync.Pool{New: func() any { return rng.New(0) }}

// stream returns rng.Stream(inj.seed, label) on a pooled source. The
// caller draws its whole decision and hands the source back with
// sources.Put before doing anything that can block.
func (inj *Injector) stream(label string) *rng.Source {
	src := sources.Get().(*rng.Source)
	src.Reseed(inj.seed, label)
	return src
}

// decide draws one yes/no decision of probability p from the stream for
// label.
func (inj *Injector) decide(label string, p float64) bool {
	src := inj.stream(label)
	yes := src.Bool(p)
	sources.Put(src)
	return yes
}

// SetClock routes latency-spike stalls through c — the fleet driver
// injects its clock here so a virtual-time campaign jumps over spikes
// instead of really sleeping them. The spike durations and the fault
// schedule are pure functions of the seed either way.
func (inj *Injector) SetClock(c vclock.Clock) {
	inj.mu.Lock()
	inj.clk = c
	inj.mu.Unlock()
}

func (inj *Injector) clock() vclock.Clock {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.clk != nil {
		return inj.clk
	}
	return vclock.Wall
}

// Config returns the fault configuration.
func (inj *Injector) Config() Config { return inj.cfg }

func (inj *Injector) record(e Event) {
	inj.mu.Lock()
	inj.meSeq[e.ME]++
	inj.events = append(inj.events, e)
	inj.faults[e.Fault]++
	inj.mu.Unlock()
}

// Counts returns how many faults of each kind have been injected so
// far, keyed by the Event.Fault strings enumerated in FaultKinds.
func (inj *Injector) Counts() map[string]int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make(map[string]int, len(inj.faults))
	for k, v := range inj.faults {
		out[k] = v
	}
	return out
}

// Events returns the fault schedule in canonical order: by ME, then by
// the ME's own (sequential) event order. Because every decision is
// keyed per ME, two runs at the same seed return equal traces no matter
// how their goroutines interleaved.
func (inj *Injector) Events() []Event {
	inj.mu.Lock()
	out := append([]Event(nil), inj.events...)
	inj.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].ME < out[j].ME })
	return out
}

// TraceString renders the canonical fault schedule one event per line —
// what the determinism tests diff and what -chaos runs can log for
// replay debugging.
func (inj *Injector) TraceString() string {
	var b bytes.Buffer
	for _, e := range inj.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MaybeCrash decides whether the ME crashes after batch round (its
// per-incarnation round counter). It draws from the stateless stream
// for (me, inc, round), enforces the per-ME crash cap, and records the
// event. The fleet driver calls this between task batches.
func (inj *Injector) MaybeCrash(me string, inc, round int) bool {
	if inj.cfg.Crash <= 0 {
		return false
	}
	inj.mu.Lock()
	budget := inj.crashes[me] < inj.cfg.maxCrashes()
	inj.mu.Unlock()
	if !budget {
		return false
	}
	if !inj.decide(fmt.Sprintf("chaos/crash/%s/%d/%d", me, inc, round), inj.cfg.Crash) {
		return false
	}
	inj.mu.Lock()
	inj.crashes[me]++
	inj.mu.Unlock()
	inj.record(Event{ME: me, Inc: inc, Op: "crash", Attempt: round, Fault: "crash"})
	return true
}

// MaybeKillShard decides whether control-plane shard `shard` dies
// after accepting its upload-th result upload. Like every other fault
// it draws from a stateless labeled stream keyed on (shard, upload),
// so the decision for "shard s's Nth accepted upload" is a pure
// function of the seed. With one fleet worker the upload order itself
// is deterministic and the whole kill schedule replays exactly; with
// concurrent workers, WHICH ME's upload is the Nth depends on
// interleaving, so the kill lands at a varying campaign moment — the
// ingested dataset is invariant either way (that is the contract shard
// kills are tested against), only the fault trace moves. The
// fleet-wide kill budget keeps campaigns terminating.
func (inj *Injector) MaybeKillShard(shard, upload int) bool {
	if inj.cfg.ShardKill <= 0 {
		return false
	}
	// Reserve a budget slot before drawing: concurrent uploads must not
	// both pass the check and overshoot MaxShardKills. A declined draw
	// returns the reservation.
	inj.mu.Lock()
	if inj.shardKills >= inj.cfg.maxShardKills() {
		inj.mu.Unlock()
		return false
	}
	inj.shardKills++
	inj.mu.Unlock()
	if !inj.decide(fmt.Sprintf("chaos/shardkill/%d/%d", shard, upload), inj.cfg.ShardKill) {
		inj.mu.Lock()
		inj.shardKills--
		inj.mu.Unlock()
		return false
	}
	inj.record(Event{ME: fmt.Sprintf("shard-%d", shard), Op: "shard-kill", Attempt: upload, Fault: "shard-kill"})
	return true
}

// MaybeKillCompaction decides whether control-plane shard `shard` dies
// at its n-th compaction crash point (the fleet numbers the crash
// points each compaction exposes with one fleet-wide per-shard
// counter). Like MaybeKillShard it reserves a budget slot before
// drawing from the stateless (shard, n) stream, so concurrent
// compactions cannot overshoot MaxCompactKills, and a declined draw
// returns the reservation.
func (inj *Injector) MaybeKillCompaction(shard, n int) bool {
	if inj.cfg.CompactKill <= 0 {
		return false
	}
	inj.mu.Lock()
	if inj.compactKills >= inj.cfg.maxCompactKills() {
		inj.mu.Unlock()
		return false
	}
	inj.compactKills++
	inj.mu.Unlock()
	if !inj.decide(fmt.Sprintf("chaos/compactkill/%d/%d", shard, n), inj.cfg.CompactKill) {
		inj.mu.Lock()
		inj.compactKills--
		inj.mu.Unlock()
		return false
	}
	inj.record(Event{ME: fmt.Sprintf("shard-%d", shard), Op: "compact-kill", Attempt: n, Fault: "compact-kill"})
	return true
}

// Transport wraps base with client-side fault injection for one ME
// incarnation. The returned RoundTripper is NOT safe for concurrent
// use — an ME issues its requests sequentially, which is exactly what
// keeps its fault schedule deterministic.
func (inj *Injector) Transport(me string, inc int, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{inj: inj, me: me, inc: inc, base: base, attempts: map[string]int{}}
}

type transport struct {
	inj      *Injector
	me       string
	inc      int
	base     http.RoundTripper
	attempts map[string]int // per-op wire attempts this incarnation
}

// faultError is the transport-level error chaos injects; it satisfies
// net.Error-style temporariness only in the sense that callers are
// expected to retry.
type faultError struct{ msg string }

func (e *faultError) Error() string { return e.msg }

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	cfg := t.inj.cfg
	op := req.Method + " " + req.URL.Path
	t.attempts[op]++
	attempt := t.attempts[op]
	src := t.inj.stream(fmt.Sprintf("chaos/%s/%d/%s/%d", t.me, t.inc, op, attempt))

	// Draw the whole decision vector up front in a fixed order so the
	// schedule for (me, inc, op, attempt) is a pure function of the seed.
	spike := src.Bool(cfg.LatencyProb)
	spikeFor := time.Duration(src.Uniform(float64(cfg.LatencyMin), float64(cfg.LatencyMax)))
	resetBefore := src.Bool(cfg.ResetBefore)
	duplicate := src.Bool(cfg.Duplicate)
	resetAfter := src.Bool(cfg.ResetAfter)
	truncate := src.Bool(cfg.Truncate)
	truncateAt := src.Float64()
	sources.Put(src)

	ev := func(fault string) {
		t.inj.record(Event{ME: t.me, Inc: t.inc, Op: op, Attempt: attempt, Fault: fault})
	}

	// Buffer the body so the request can be re-sent for duplicates — in
	// one exactly-sized buffer when the request states its length.
	var body []byte
	if req.Body != nil {
		var err error
		if req.ContentLength > 0 {
			body = make([]byte, req.ContentLength)
			_, err = io.ReadFull(req.Body, body)
		} else {
			//lint:allow bodyhygiene request bodies are built in-process by amigo.Endpoint (tiny JSON), not read off the network; bounding here would corrupt the replayed duplicate
			body, err = io.ReadAll(req.Body)
		}
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	send := func() (*http.Response, error) {
		r := req.Clone(req.Context())
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		r.Header.Set(MEHeader, t.me)
		return t.base.RoundTrip(r)
	}

	if spike && spikeFor > 0 {
		ev("latency")
		// The stall runs on the injected clock: a real-clock campaign
		// truly pauses the transport; a virtual-clock campaign parks and
		// lets quiescence jump the spike.
		if err := vclock.SleepCtx(t.inj.clock(), req.Context(), spikeFor); err != nil {
			return nil, err
		}
	}
	if resetBefore {
		ev("reset-before")
		return nil, &faultError{fmt.Sprintf("chaos: connection reset before %s", op)}
	}
	resp, err := send()
	if err != nil {
		return nil, err
	}
	if duplicate {
		ev("duplicate")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp, err = send(); err != nil {
			return nil, err
		}
	}
	if resetAfter {
		ev("reset-after")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &faultError{fmt.Sprintf("chaos: connection reset awaiting response to %s", op)}
	}
	if truncate && resp.StatusCode == http.StatusOK {
		//lint:allow bodyhygiene the truncation fault must capture the exact byte stream so the cut offset is a pure function of the seed; a bound would move the cut on large bodies
		full, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if len(full) > 0 {
			ev("truncate")
			cut := int(truncateAt * float64(len(full))) // strictly < len(full)
			resp.Body = &truncatedBody{data: full[:cut]}
			resp.ContentLength = int64(cut)
		} else {
			resp.Body = io.NopCloser(bytes.NewReader(full))
		}
	}
	return resp, nil
}

// truncatedBody yields its bytes and then fails with ErrUnexpectedEOF,
// like a connection torn down mid-body.
type truncatedBody struct {
	data []byte
	off  int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *truncatedBody) Close() error { return nil }

// Middleware injects server-side 5xx/429 storms in front of next.
// Requests without the MEHeader (operator/admin traffic, or clients not
// under chaos) pass through untouched. Storm decisions key on the
// request's (ME, op) and a per-pair counter, so — like the client-side
// faults — the storm schedule is per-ME deterministic and replays
// exactly for a given seed. Storms fire before next sees the request,
// so a stormed request never has server-side effects.
func (inj *Injector) Middleware(next http.Handler) http.Handler {
	cfg := inj.cfg
	if cfg.Err5xx <= 0 && cfg.Err429 <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		me := r.Header.Get(MEHeader)
		if me == "" {
			next.ServeHTTP(w, r)
			return
		}
		op := r.Method + " " + r.URL.Path
		key := me + "|" + op
		inj.mu.Lock()
		inj.mwSeen[key]++
		attempt := inj.mwSeen[key]
		inj.mu.Unlock()
		src := inj.stream(fmt.Sprintf("chaos/mw/%s/%s/%d", me, op, attempt))
		storm5xx := src.Bool(cfg.Err5xx)
		storm429 := src.Bool(cfg.Err429)
		sources.Put(src)
		switch {
		case storm5xx:
			inj.record(Event{ME: me, Op: "mw " + op, Attempt: attempt, Fault: "503"})
			w.Header().Set("Retry-After", "0")
			http.Error(w, "chaos: injected 503 storm", http.StatusServiceUnavailable)
		case storm429:
			inj.record(Event{ME: me, Op: "mw " + op, Attempt: attempt, Fault: "429"})
			w.Header().Set("Retry-After", "0")
			http.Error(w, "chaos: injected 429 storm", http.StatusTooManyRequests)
		default:
			next.ServeHTTP(w, r)
		}
	})
}
