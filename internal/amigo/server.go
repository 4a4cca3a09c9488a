// Package amigo reimplements the AmiGo testbed the paper extended: a
// control server that manages remote measurement endpoints (MEs) over a
// REST API, and the ME client that polls for instrumentation, reports
// device vitals, and uploads results.
//
// The paper's MEs were rooted Samsung S21+ phones running termux; here
// the ME drives sessions of the simulated world instead of a radio, but
// the control-plane protocol — lease tasks, upload observations — is the
// same shape, over real HTTP. An Endpoint reaches the server through a
// Transport: the routes below, or DirectTransport calling the Server
// methods behind them — what the serial reference campaign
// (fleet.RunInProcess) runs on, so the oracle shares no socket and no
// codec with the path it judges.
//
// # Protocol
//
// An ME speaks two routes, which the fleet (see internal/fleet) and the
// standalone amigo-me both use: it leases up to K tasks in one round trip
// and uploads their results as one batch (Endpoint.RunBatch). Bodies are
// internal/wire frames (see DESIGN.md "v3 wire format") and requests must
// carry Content-Type application/vnd.amigo.v3 (else 415):
//
//	POST /v3/tasks/lease   MsgLeaseRequest frame -> MsgTasks frame, + drained flag (204 if none)
//	POST /v3/results       MsgResults frame      -> 204, or 429 + Retry-After;
//	                       + lease record        -> the lease's MsgTasks frame (204 if it failed)
//
// An ME does not register: scheduling work for it (POST /admin/schedule,
// ScheduleBatch) is what makes the server know it, and a lease for an ME
// nothing was ever scheduled for is 404 (ErrUnknownME) and leases nothing.
// A heartbeat is not a request either: Endpoint.Heartbeat samples the
// ME's vitals and its next lease carries them (ReportVitals, then the
// lease).
//
// Batch delivery is at-least-once and loss-tolerant: the lease request's
// Ack acknowledges every previously delivered task ID <= Ack, and
// unacked deliveries are re-sent before fresh work is popped, so a lease
// response lost or truncated on a flaky link is simply re-fetched
// (LeaseAckInto). A lease reply that holds every task the ME has left is
// flagged drained (a 204 when it holds none), so the ME stops after
// uploading it without a confirming lease (Endpoint.Lease), its last batch
// unacked. The server keeps each ME as one schedule and two cursors into
// it, acked and sent (meState), so a lease copies tasks only into its
// reply. Uploads may carry an
// Idempotency-Key header; a batch whose key was already accepted is
// dropped server-side (SubmitKeyed), so retried and duplicated uploads
// never double-count results.
//
// An upload may carry the lease the ME would send next, as a record after
// its results (wire.AppendUpload): the server takes the batch, then serves
// that lease and answers with its reply (Server.upload), which the
// Endpoint keeps for its next Lease. An upload carries a lease only when
// the ME's last lease was not drained, so an ME with k batches makes k + 1
// requests: a lease, then k uploads, each but the last carrying the next
// lease.
//
// A restarted ME gets its entire schedule back, original task IDs
// included, by setting Redeliver on its first lease (Endpoint.Redeliver):
// the server runs Requeue, then records the vitals, then leases.
//
// # Backpressure
//
// Uploaded results flow through a bounded spool into a pluggable Sink
// (MemorySink by default, which retains results for Results /
// ResultsSince). An upload returns only after its batch has reached the
// sink, so Results() observed after a 2xx upload always includes it.
// When the sink cannot keep up and the spool is full, uploads are shed
// with HTTP 429 and a Retry-After hint instead of growing memory without
// bound.
//
// The ME registry is sharded by endpoint name, so scheduling, heartbeats
// and leases for different MEs do not contend on one mutex at fleet scale.
package amigo

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// Task is one instrumentation command for an ME. The struct lives in
// internal/wire (aliased here) so the server, the endpoint and the v3
// codec share one canonical definition.
type Task = wire.Task

// Result is an uploaded observation (canonical struct in
// internal/wire, see Task).
type Result = wire.Result

// Vitals are the device-health metrics an ME reports on its next lease
// (canonical struct in internal/wire, see Task).
type Vitals = wire.Vitals

// ErrSpoolFull is returned by Submit when the bounded result spool has
// no room for a batch; HTTP handlers translate it to 429 + Retry-After.
var ErrSpoolFull = errors.New("amigo: result spool full")

// meState tracks one known endpoint: its schedule, in the order it was
// queued, and two cursors into it. A lease hands out sched[acked:], an ack
// retires a prefix of what was sent, and a redelivery rewinds both, so the
// schedule is never reordered or copied: sched[:acked] is acknowledged
// (kept so a redelivery can restore it), sched[acked:sent] is delivered
// but unacked — re-sent first, so a lease response lost on the wire costs
// a round trip but never a task — and sched[sent:] is undelivered.
type meState struct {
	LastVitals  Vitals
	sched       []Task
	acked, sent int
}

// registryShard holds a slice of the ME registry under its own lock.
type registryShard struct {
	mu  sync.Mutex
	mes map[string]*meState // guarded by mu
}

const (
	defaultShardCount = 16
	defaultSpoolCap   = 8192
)

// Server is the AmiGo control server.
type Server struct {
	shards []registryShard
	nextID atomic.Int64
	clock  func() time.Time

	retryAfter time.Duration

	spoolMu  sync.Mutex
	spool    []Result // guarded by spoolMu
	spoolCap int

	drainMu sync.Mutex
	sink    Sink
	cur     CursorSink // nil when the sink supports no cursor reads

	idemMu   sync.Mutex
	idemSeen map[string]struct{} // guarded by idemMu

	// obs is the optional metrics/trace registry (see WithObs). All
	// metric handles below are nil-safe no-ops when obs is nil, so the
	// serving path carries no "is observability enabled" branches.
	obs *obs.Registry
	met serverMetrics
}

// serverMetrics are the control-plane counters, created once at
// construction so the request path touches only atomics (never the
// registry lock).
type serverMetrics struct {
	scheduled     *obs.Counter // tasks queued via Schedule/ScheduleBatch
	leased        *obs.Counter // fresh task deliveries
	redelivered   *obs.Counter // unacked tasks re-sent after a lost lease response
	acked         *obs.Counter // tasks retired by a lease ack
	requeued      *obs.Counter // tasks restored by a redelivery lease
	submitted     *obs.Counter // results accepted into the spool
	dedupDropped  *obs.Counter // duplicate idempotency-key batches dropped
	spoolRejected *obs.Counter // batches shed with 429 (spool full)
	encodeErrors  *obs.Counter // response encode/write failures (client gone mid-response)
}

// Option configures a Server.
type Option func(*Server)

// WithSink replaces the default MemorySink. The server itself retains
// nothing: Results / ResultsSince / Cursor are served by the sink when
// it implements CursorSink (MemorySink and walsink.Sink do), and the
// admin results route answers 501 when it does not — a write-only sink
// is a configuration the operator should see, not an empty page.
func WithSink(sink Sink) Option {
	return func(s *Server) {
		s.sink = sink
		s.cur, _ = sink.(CursorSink)
	}
}

// WithSpoolCapacity bounds the result spool (default 8192 results).
func WithSpoolCapacity(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.spoolCap = n
		}
	}
}

// WithRetryAfter sets the Retry-After hint sent with 429 responses
// (default 1s; rounded up to whole seconds on the wire).
func WithRetryAfter(d time.Duration) Option {
	return func(s *Server) { s.retryAfter = d }
}

// WithObs attaches a metrics/trace registry: per-route request counts
// and latency histograms, lease/ack/redelivery/dedup counters, and
// spool gauges are recorded into it, and AdminHandler serves it at
// GET /admin/metrics (Prometheus text format) and GET /admin/trace.
// Without it the server collects nothing and the admin routes serve an
// empty exposition. Instrumentation is off the hot path — counters are
// single atomics created up front — and never perturbs determinism:
// campaign datasets are byte-identical with metrics on or off.
func WithObs(reg *obs.Registry) Option {
	return func(s *Server) { s.obs = reg }
}

// NewServer returns a control server. clock may be nil (wall clock).
func NewServer(clock func() time.Time, opts ...Option) *Server {
	if clock == nil {
		clock = time.Now
	}
	mem := NewMemorySink()
	s := &Server{
		shards:     make([]registryShard, defaultShardCount),
		clock:      clock,
		retryAfter: time.Second,
		spoolCap:   defaultSpoolCap,
		sink:       mem,
		cur:        mem,
		idemSeen:   map[string]struct{}{},
	}
	for _, opt := range opts {
		opt(s)
	}
	for i := range s.shards {
		//lint:allow guardedfield constructor: the server is not shared until New returns
		s.shards[i].mes = map[string]*meState{}
	}
	s.initObs()
	return s
}

// initObs creates the metric handles (nil no-ops when no registry is
// attached) and registers the liveness gauges.
func (s *Server) initObs() {
	s.met = serverMetrics{
		scheduled:     s.obs.Counter("amigo_server_tasks_scheduled_total"),
		leased:        s.obs.Counter("amigo_server_leased_tasks_total"),
		redelivered:   s.obs.Counter("amigo_server_redelivered_tasks_total"),
		acked:         s.obs.Counter("amigo_server_acked_tasks_total"),
		requeued:      s.obs.Counter("amigo_server_requeued_tasks_total"),
		submitted:     s.obs.Counter("amigo_server_results_submitted_total"),
		dedupDropped:  s.obs.Counter("amigo_server_dedup_dropped_batches_total"),
		spoolRejected: s.obs.Counter("amigo_server_spool_rejections_total"),
		encodeErrors:  s.obs.Counter("amigo_server_response_encode_errors_total"),
	}
	s.obs.GaugeFunc("amigo_server_spool_depth", func() float64 { return float64(s.SpoolDepth()) })
	s.obs.GaugeFunc("amigo_server_registered_mes", func() float64 { return float64(len(s.MEs())) })
}

func (s *Server) shardFor(me string) *registryShard {
	h := fnv.New32a()
	h.Write([]byte(me))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Register makes me known to the server with nothing scheduled.
//
// Deprecated: an ME does not register — ScheduleBatch creates it. The
// method remains only because bench/ calls it; the country is not kept.
func (s *Server) Register(me, _ string) { s.ScheduleBatch(me, nil) }

// unknownME is every registry method's error for an ME not known here.
func unknownME(me string) error { return fmt.Errorf("amigo: unknown ME %q: %w", me, ErrUnknownME) }

// ReportVitals records a heartbeat: the ME's latest vitals. A lease
// carries them here (Server.lease); reporting the same vitals again
// changes nothing.
func (s *Server) ReportVitals(me string, v Vitals) error {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return unknownME(me)
	}
	st.LastVitals = v
	return nil
}

// ScheduleBatch queues tasks for the named ME in order and returns their
// IDs, creating the ME when the server does not know it yet: scheduling
// is what makes an ME known, so the error is always nil (the signature
// stays for bench/). Tasks with ID 0 get fresh server-assigned IDs
// (globally unique, monotonically increasing per ME); a task carrying a
// positive ID keeps it, and the allocator advances past it so later fresh
// IDs never collide. Pre-set IDs are how the fleet driver re-schedules an ME on a
// replacement control shard after a crash: the re-executed tasks upload
// under their original (ME, task ID), so ingest dedup absorbs the
// replay instead of double-counting it.
func (s *Server) ScheduleBatch(me string, tasks []Task) ([]int, error) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		st = &meState{}
		sh.mes[me] = st
	}
	ids := make([]int, len(tasks))
	for i, t := range tasks {
		if t.ID > 0 {
			s.reserveID(int64(t.ID))
		} else {
			t.ID = int(s.nextID.Add(1))
		}
		st.sched = append(st.sched, t)
		ids[i] = t.ID
	}
	s.met.scheduled.Add(int64(len(tasks)))
	return ids, nil
}

// reserveID advances the ID allocator to at least id, so explicitly
// scheduled IDs and fresh ones never collide.
func (s *Server) reserveID(id int64) {
	for {
		cur := s.nextID.Load()
		if cur >= id || s.nextID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// LeaseAckInto is the at-least-once batch lease: ack acknowledges every
// previously delivered task with ID <= ack, and any still-unacked
// deliveries are re-sent (in the original order) before fresh work is
// handed out. A client that lost a lease response simply retries with its
// unchanged ack and receives the same tasks again, so response loss or
// truncation never drops scheduled work. ack 0 (a fresh client)
// acknowledges nothing. The leased tasks are appended onto dst — the
// handler passes a pooled slice re-sliced to [:0] so the steady-state
// lease copies into recycled capacity instead of allocating per
// response. Re-sent deliveries are topped up with fresh tasks, so fewer
// than max come back only when they are all the ME has left; the lease
// routes also say so with a drained flag (Server.lease), and the ME then
// skips the lease that would only confirm it, leaving its last batch
// unacked, which costs nothing — Requeue restores it with the rest.
func (s *Server) LeaseAckInto(me string, max, ack int, dst []Task) ([]Task, error) {
	dst, _, err := s.leaseAck(me, max, ack, dst)
	return dst, err
}

// leaseAck is LeaseAckInto, also reporting whether the reply reaches the
// end of the ME's schedule (drained).
func (s *Server) leaseAck(me string, batch, ack int, dst []Task) ([]Task, bool, error) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return dst, false, unknownME(me)
	}
	acked := st.acked
	for st.acked < st.sent && st.sched[st.acked].ID <= ack {
		st.acked++
	}
	end := min(st.acked+max(batch, 1), len(st.sched))
	s.met.acked.Add(int64(st.acked - acked))
	s.met.redelivered.Add(int64(min(end, st.sent) - st.acked))
	s.met.leased.Add(int64(max(end-st.sent, 0)))
	st.sent = max(st.sent, end)
	return append(dst, st.sched[st.acked:end]...), end == len(st.sched), nil
}

// lease is a lease request as both transports serve it: a redelivery
// first restores the ME's whole schedule (Requeue), the vitals it
// carries, unless zero, are reported next — an unknown ME fails at the
// first of these, leasing nothing — then LeaseAckInto, Max clamped to
// [1, maxLeaseBatch]. drained is true when the reply holds every task the
// ME has left.
func (s *Server) lease(req wire.LeaseRequest, dst []Task) (tasks []Task, drained bool, err error) {
	if req.Redeliver {
		if _, err := s.Requeue(req.ME); err != nil {
			return dst, false, err
		}
	}
	if !req.Vitals.IsZero() {
		if err := s.ReportVitals(req.ME, req.Vitals); err != nil {
			return dst, false, err
		}
	}
	return s.leaseAck(req.ME, min(req.Max, maxLeaseBatch), req.Ack, dst)
}

// errLeaseME refuses an upload whose lease names an ME other than its
// first result's, the ME a shard gateway routes the upload by: the lease
// would be served by a shard that may not own its ME.
var errLeaseME = errors.New("amigo: an upload's lease names another ME than its first result")

// upload is an upload as both transports serve it: SubmitKeyed, then, when
// next names an ME, next served as lease serves it, the reply appended
// onto dst. A duplicate batch is dropped and its lease still answered, so a
// retried upload gets the reply its lost response carried: the same tasks,
// re-sent from the ack cursor. A lease part that fails — an unknown ME,
// whose shard lost it — leaves the accepted results accepted and answers
// nothing; the ME's next lease meets the failure itself.
//
// A batch larger than the whole spool is refused first, as the HTTP
// handler refuses it before decoding, so both transports agree on what a
// request that is wrong twice answers.
func (s *Server) upload(key string, batch []Result, next wire.LeaseRequest, dst []Task) ([]Task, bool, error) {
	if len(batch) > s.spoolCap {
		s.met.spoolRejected.Add(1)
		return dst, false, ErrSpoolFull
	}
	if next.ME != "" && (len(batch) == 0 || batch[0].ME != next.ME) {
		return dst, false, errLeaseME
	}
	if err := s.SubmitKeyed(key, batch); err != nil || next.ME == "" {
		return dst, false, err
	}
	tasks, drained, err := s.lease(next, dst)
	if err != nil {
		return dst, false, nil
	}
	return tasks, drained, nil
}

// Requeue restores the ME's full schedule — acknowledged, outstanding
// and undelivered tasks, in original ID order — for delivery from its
// start: both cursors go back to zero. It is how a crashed-and-restarted
// ME gets its work re-delivered with the original task IDs (so replayed
// uploads dedup instead of duplicating): a lease with Redeliver set runs
// it first. Requeue is idempotent: a second call with nothing delivered
// since is a no-op. It returns how many tasks were restored.
func (s *Server) Requeue(me string) (int, error) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return 0, unknownME(me)
	}
	restored := st.sent
	if restored == 0 {
		return 0, nil
	}
	st.acked, st.sent = 0, 0
	s.met.requeued.Add(int64(restored))
	s.obs.Trace().Record("requeue", obs.L("me", me), obs.L("restored", strconv.Itoa(restored)))
	return restored, nil
}

// Submit stamps a batch with the server clock and routes it through the
// bounded spool into the sink. It returns ErrSpoolFull when the spool
// cannot absorb the batch; otherwise it returns only after the batch has
// reached the sink, so a subsequent Results call observes it.
func (s *Server) Submit(batch []Result) error {
	if len(batch) == 0 {
		return nil
	}
	now := s.clock()
	stamped := make([]Result, len(batch))
	copy(stamped, batch)
	for i := range stamped {
		stamped[i].Uploaded = now
	}
	s.spoolMu.Lock()
	if len(s.spool)+len(stamped) > s.spoolCap {
		s.spoolMu.Unlock()
		s.met.spoolRejected.Add(1)
		s.obs.Trace().Record("spool-full", obs.L("batch", strconv.Itoa(len(stamped))))
		return ErrSpoolFull
	}
	if len(s.spool) == 0 {
		s.spool = stamped // ours alone, and drain left the spool nil: no second copy
	} else {
		s.spool = append(s.spool, stamped...)
	}
	s.spoolMu.Unlock()
	s.drain()
	s.met.submitted.Add(int64(len(stamped)))
	return nil
}

// SubmitKeyed is Submit with at-most-once semantics: a batch whose
// idempotency key was already accepted is dropped silently (the first
// copy is durable by the time its key is recorded, so read-your-writes
// still holds for the duplicate's 2xx). Keys are recorded only on
// success — a batch shed with ErrSpoolFull may retry under the same key.
// An empty key degrades to plain Submit. Uploads for one ME are
// sequential in every supported client, so the check-then-record window
// is not raced in practice; a pathological concurrent duplicate would
// merely double-submit, which Ingest's (ME, task ID) dedup absorbs.
func (s *Server) SubmitKeyed(key string, batch []Result) error {
	if key == "" {
		return s.Submit(batch)
	}
	s.idemMu.Lock()
	_, dup := s.idemSeen[key]
	s.idemMu.Unlock()
	if dup {
		s.met.dedupDropped.Add(1)
		return nil
	}
	if err := s.Submit(batch); err != nil {
		return err
	}
	s.idemMu.Lock()
	s.idemSeen[key] = struct{}{}
	s.idemMu.Unlock()
	return nil
}

// drain moves spooled results into the sink. Sink writes are serialized
// under drainMu; a submitter whose batch was claimed by a concurrent
// drainer blocks here until that drainer has sunk it, preserving
// read-your-writes for uploads.
func (s *Server) drain() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	for {
		s.spoolMu.Lock()
		batch := s.spool
		s.spool = nil
		s.spoolMu.Unlock()
		if len(batch) == 0 {
			return
		}
		s.sink.Append(batch)
	}
}

// SpoolDepth reports how many results are parked in the spool awaiting
// the sink — a liveness metric; nonzero values mean the sink is behind.
func (s *Server) SpoolDepth() int {
	s.spoolMu.Lock()
	defer s.spoolMu.Unlock()
	return len(s.spool)
}

// Results returns a copy of every retained result. It pages through
// ResultsSince because a disk-backed CursorSink may serve bounded pages
// rather than the whole history in one call.
func (s *Server) Results() []Result {
	var out []Result
	cursor := 0
	for {
		rs, next := s.ResultsSince(cursor, 0)
		if len(rs) == 0 || next <= cursor {
			return out
		}
		out = append(out, rs...)
		cursor = next
	}
}

// ResultsSince returns the retained results at positions >= cursor —
// at most limit of them when limit > 0 — and the cursor one past the
// last returned result (which may trail the newest even when limit <= 0:
// a disk-backed sink serves bounded pages — loop until the cursor stops
// advancing). It returns nothing when the installed sink is not a
// CursorSink; HTTP callers get 501 instead (SupportsCursor).
func (s *Server) ResultsSince(cursor, limit int) ([]Result, int) {
	if s.cur == nil {
		return nil, 0
	}
	return s.cur.Since(cursor, limit)
}

// Cursor returns the current result cursor (see ResultsSince).
func (s *Server) Cursor() int {
	if s.cur == nil {
		return 0
	}
	return s.cur.Len()
}

// SupportsCursor reports whether the installed sink can serve cursor
// reads (Results / ResultsSince / GET /admin/results).
func (s *Server) SupportsCursor() bool { return s.cur != nil }

// MEs lists the known endpoints, sorted.
func (s *Server) MEs() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for name := range sh.mes {
			out = append(out, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Vitals returns the last-reported vitals for an ME.
func (s *Server) Vitals(me string) (Vitals, bool) {
	sh := s.shardFor(me)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.mes[me]
	if !ok {
		return Vitals{}, false
	}
	return st.LastVitals, true
}

// busyHint is the backpressure hint as Retry-After carries it: whole seconds.
func (s *Server) busyHint() time.Duration {
	return max(0, time.Duration(math.Ceil(s.retryAfter.Seconds()))*time.Second)
}

// rejectBusy writes the 429 + Retry-After backpressure response.
func (s *Server) rejectBusy(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(s.busyHint()/time.Second)))
	http.Error(w, "result spool full", http.StatusTooManyRequests)
}

// rejectErr answers a registry error: ErrUnknownME is 404 on the wire.
func rejectErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if errors.Is(err, ErrUnknownME) {
		code = http.StatusNotFound
	}
	http.Error(w, err.Error(), code)
}

// atoiParam parses an optional integer query parameter: empty means 0,
// anything else must be a well-formed integer.
func atoiParam(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	return strconv.Atoi(raw)
}

// writeFrame writes an encoded v3 frame, counting a short or failed
// write (the client vanished mid-response) in /admin/metrics.
func (s *Server) writeFrame(w http.ResponseWriter, frame []byte) {
	w.Header()["Content-Type"] = frameType
	if _, err := w.Write(frame); err != nil {
		s.met.encodeErrors.Add(1)
	}
}

// statusWriter captures the response status code for route metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// statusClass buckets a status code for the request counter. 429 gets
// its own class — it is the backpressure signal, not a generic client
// error — and everything else collapses to a class to bound cardinality.
func statusClass(code int) string {
	switch {
	case code == http.StatusTooManyRequests:
		return "429"
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// requestClasses are the pre-created status classes per route.
var requestClasses = []string{"2xx", "3xx", "4xx", "429", "5xx"}

// instrument registers a route with per-route request counters and a
// latency histogram. All handles are created here, at mux construction,
// so the request path adds one clock read, one atomic counter bump and
// one histogram shard lock. With no registry attached the handler is
// registered bare.
func (s *Server) instrument(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	if s.obs == nil {
		mux.HandleFunc(pattern, h)
		return
	}
	route := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		route = pattern[i+1:]
	}
	byClass := make(map[string]*obs.Counter, len(requestClasses))
	for _, class := range requestClasses {
		byClass[class] = s.obs.Counter("amigo_server_requests_total",
			obs.L("route", route), obs.L("class", class))
	}
	dur := s.obs.Histogram("amigo_server_request_duration_ms", obs.L("route", route))
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		dur.Observe(float64(time.Since(start)) / float64(time.Millisecond))
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler wrote nothing: implicit 200
		}
		byClass[statusClass(code)].Add(1)
	})
}

// Handler exposes the measurement-endpoint API (see the package comment
// for the protocol).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.instrument(mux, "POST /v3/tasks/lease", s.handleV3Lease)
	s.instrument(mux, "POST /v3/results", s.handleV3Results)
	return mux
}

// maxLeaseBatch bounds how many tasks one lease round trip may request,
// so a malformed or hostile client cannot drain an entire fleet-sized
// queue into one response.
const maxLeaseBatch = 1024

// handleAdminResults is GET /admin/results?cursor=N[&limit=M]: one page
// of the result log in the codec the results were uploaded in, one
// wire.MsgResults frame (no body when the page is empty) encoded into a
// pooled buffer, with next in the X-Amigo-Cursor header. A page whose
// frame would exceed wire.MaxFrame is cut to the results that fit, and
// next says so. cursor=-1 returns just the current cursor.
func (s *Server) handleAdminResults(w http.ResponseWriter, r *http.Request) {
	if !s.SupportsCursor() {
		http.Error(w, "results not readable: installed sink has no cursor support", http.StatusNotImplemented)
		return
	}
	q := r.URL.Query()
	// Missing parameters default to zero; malformed ones are 400s —
	// silently reading garbage as cursor 0 would replay the whole log as
	// a "successful" page.
	cursor, err := atoiParam(q.Get("cursor"))
	if err != nil {
		http.Error(w, "bad cursor", http.StatusBadRequest)
		return
	}
	limit, err := atoiParam(q.Get("limit"))
	if err != nil {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return
	}
	var rs []Result
	next := s.Cursor()
	if cursor >= 0 {
		rs, next = s.ResultsSince(cursor, limit)
	}
	n, size := wire.ResultsFrameLen(rs)
	if n < len(rs) {
		if n == 0 {
			http.Error(w, "result exceeds the v3 frame bound", http.StatusInternalServerError)
			return
		}
		next -= len(rs) - n
		rs = rs[:n]
	}
	w.Header().Set(wire.CursorHeader, strconv.Itoa(next))
	if len(rs) == 0 {
		w.Header()["Content-Type"] = frameType
		return
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = wire.AppendResults(slices.Grow(*buf, size), rs)
	s.writeFrame(w, *buf)
}

// AdminHandler exposes the operator API. Its one request body is a
// schedule, sent as application/vnd.amigo.v3 (else 415):
//
//	POST /admin/schedule  one or more MsgSchedule frames -> one MsgTasks
//	                      frame of each frame's queued tasks, in body
//	                      order; all or nothing: a body over
//	                      wire.MaxFrame bytes is 413, and over
//	                      wire.MaxScheduleCount tasks in all, a frame with
//	                      no task, one without a kind, or no ME, or any
//	                      byte that is not such a frame is 400, each
//	                      queuing nothing; an ME the server does not know
//	                      yet is created
//	GET  /admin/results?cursor=N[&limit=M] -> one MsgResults frame, next
//	                      in X-Amigo-Cursor; cursor=-1 returns just the
//	                      current cursor
//	GET  /admin/metrics        -> Prometheus text exposition (see WithObs)
//	GET  /admin/trace?n=K      -> newest K trace events as JSON
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	s.instrument(mux, "POST /admin/schedule", s.handleV3Schedule)
	s.instrument(mux, "GET /admin/results", s.handleAdminResults)
	// Observability routes. Both are valid (empty) with no registry
	// attached, and deliberately uninstrumented: scraping the metrics
	// endpoint should not move the metrics it reports.
	mux.Handle("GET /admin/metrics", s.obs.MetricsHandler())
	mux.Handle("GET /admin/trace", s.obs.TraceHandler())
	return mux
}
