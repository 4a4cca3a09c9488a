package amigo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/measure"
	"roamsim/internal/mno"
	"roamsim/internal/netsim"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/vclock"
	"roamsim/internal/video"
	"roamsim/internal/wire"
)

// ProtoV3 is the only value (besides "") Endpoint.Proto and
// fleet.Driver.Proto accept.
//
// Deprecated: there is one batch protocol and nothing to select. The
// constant and both fields remain only because bench/ assigns them;
// they go once a benchmark PR drops those two assignments.
const ProtoV3 = "v3"

// Backoff is the endpoint's retry policy: capped exponential backoff
// with optional jitter, shared by every control-plane operation. The
// zero value means defaults.
type Backoff struct {
	// MaxAttempts caps the tries per logical operation (default 10);
	// the operation fails with the last error once exhausted — the
	// endpoint never loops forever against a broken server.
	MaxAttempts int
	// Base is the first retry delay; it doubles each attempt (default
	// 25ms).
	Base time.Duration
	// Max caps the backoff delay AND clamps any server-sent
	// Retry-After hint (default 2s) — a confused or hostile server
	// cannot park the fleet for an hour with one header.
	Max time.Duration
	// Jitter, when set, scales every delay by a uniform factor in
	// [0.5, 1.5) drawn from this stream, de-synchronizing fleet
	// retries. It must be a stream separate from the measurement
	// source (rng.Stream), so retry timing never perturbs payloads.
	Jitter *rng.Source
}

func (b Backoff) withDefaults() Backoff {
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 10
	}
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	return b
}

// delay returns the wait before retry number attempt (0-based). A
// positive server hint (Retry-After) wins over the exponential
// schedule, but is clamped to Max rather than trusted blindly.
func (b Backoff) delay(attempt int, hint time.Duration) time.Duration {
	d := hint
	if d <= 0 {
		d = b.Base << attempt
		if d <= 0 { // shift overflow
			d = b.Max
		}
	}
	if d > b.Max {
		d = b.Max
	}
	if b.Jitter != nil {
		d = time.Duration(b.Jitter.Uniform(0.5, 1.5) * float64(d))
	}
	return d
}

// ErrUnknownME is wrapped into every error that means the server does
// not know this ME — by the Server methods themselves, and by the HTTP
// transport for a 404. In a sharded deployment that is the signature of
// a control-shard crash — the replacement shard lost every registration
// — and the fleet driver treats it as recoverable (re-register,
// re-schedule under the original task IDs, replay). Test with errors.Is.
var ErrUnknownME = errors.New("amigo: server does not know this ME")

// Endpoint is a measurement endpoint: the rooted-phone replacement that
// executes instrumentation against the simulated world and talks to the
// control server through a Transport.
type Endpoint struct {
	Name    string
	BaseURL string
	Client  *http.Client
	Dep     *airalo.Deployment
	Src     *rng.Source
	// Transport carries the control-plane operations; nil means HTTP to
	// BaseURL through Client.
	Transport Transport
	// Retry is the control-plane retry policy (zero value = defaults).
	Retry Backoff
	// Ctx, when set, bounds every request and backoff sleep — the
	// fleet driver's straggler watchdog cancels it to reclaim an ME
	// stuck behind pathological faults.
	Ctx context.Context
	// Obs, when set, records client-side metrics: per-path request
	// counts, retries and give-ups, 429 backpressure hits, connection
	// reuse vs churn, and per-kind task execution histograms. It must
	// be set before the first operation; instrumentation never touches
	// the measurement rng, so datasets are identical with or without it.
	Obs *obs.Registry
	// Proto is not read.
	//
	// Deprecated: see ProtoV3.
	Proto string
	// Clock is the time source for backoff sleeps, Retry-After waits,
	// realized task durations, and execution metrics (nil = wall clock).
	// On a vclock.Virtual the ME's goroutine must be a registered waiter.
	Clock vclock.Clock
	// Realize, when set, makes the ME spend each task's simulated network
	// duration on Clock — the netsim delay realization: RunBatch waits out
	// a leased batch's summed durations in one wait before uploading it, a
	// lone Execute its own task's. A real ME spends the observed latencies
	// and transfer times; a simulated campaign then spends them too (and a
	// virtual-clock one skips over them). Payloads are sealed before the
	// wait, so the dataset is byte-identical with Realize on or off.
	Realize bool

	battery float64
	acked   int  // highest task ID leased so far (the lease ack cursor)
	drained bool // RunBatch uploaded a short lease: the next call returns 0 unasked
	// scratch is the pooled buffer the payloads of the batch being run are
	// encoded into, one after another in task order; seal moves them onto
	// the batch's own slab and hands it back (nil between batches).
	scratch *[]byte

	metOnce sync.Once
	met     epMetrics
}

// epMetrics caches the endpoint's metric handles so the request path
// never takes the registry lock; all handles are nil no-ops when no
// registry is attached.
type epMetrics struct {
	requests map[string]*obs.Counter   // per control-plane path
	other    *obs.Counter              // fallback for unexpected paths
	c429     *obs.Counter              // 429 backpressure responses seen
	exec     map[string]*obs.Histogram // task execution time per kind
	// connTrace observes connection reuse (nil without a registry, so
	// the uninstrumented path allocates nothing per request).
	connTrace *httptrace.ClientTrace
}

var (
	epPaths = []string{
		"/v1/register", "/v1/status", "/v2/tasks/requeue", "/v3/tasks/lease", "/v3/results",
	}
	taskKinds = []string{"speedtest", "mtr", "cdn", "dns", "video", "other"}
)

// metrics lazily builds the handle cache. Lazy because the fleet driver
// attaches Obs after construction; Once because handles must be built
// exactly once even with concurrent first calls.
func (e *Endpoint) metrics() *epMetrics {
	e.metOnce.Do(func() {
		m := &e.met
		m.requests = make(map[string]*obs.Counter, len(epPaths))
		for _, p := range epPaths {
			m.requests[p] = e.Obs.Counter("amigo_endpoint_requests_total", obs.L("path", p))
		}
		m.other = e.Obs.Counter("amigo_endpoint_requests_total", obs.L("path", "other"))
		m.c429 = e.Obs.Counter("amigo_endpoint_backpressure_429_total")
		m.exec = make(map[string]*obs.Histogram, len(taskKinds))
		for _, k := range taskKinds {
			m.exec[k] = e.Obs.Histogram("amigo_endpoint_task_exec_ms", obs.L("kind", k))
		}
		if e.Obs != nil {
			connNew := e.Obs.Counter("amigo_endpoint_connections_total", obs.L("reused", "false"))
			connReused := e.Obs.Counter("amigo_endpoint_connections_total", obs.L("reused", "true"))
			m.connTrace = &httptrace.ClientTrace{
				GotConn: func(info httptrace.GotConnInfo) {
					if info.Reused {
						connReused.Add(1)
					} else {
						connNew.Add(1)
					}
				},
			}
		}
	})
	return &e.met
}

func (m *epMetrics) request(path string) {
	if c, ok := m.requests[path]; ok {
		c.Add(1)
		return
	}
	m.other.Add(1)
}

// reqContext is the request context, instrumented to observe connection
// reuse when a registry is attached.
func (e *Endpoint) reqContext(ctx context.Context) context.Context {
	if t := e.metrics().connTrace; t != nil {
		ctx = httptrace.WithClientTrace(ctx, t)
	}
	return ctx
}

// NewEndpoint creates an ME bound to a deployment.
func NewEndpoint(name, baseURL string, dep *airalo.Deployment, src *rng.Source) *Endpoint {
	return &Endpoint{
		Name: name, BaseURL: baseURL, Client: http.DefaultClient,
		Dep: dep, Src: src, battery: 1,
	}
}

func (e *Endpoint) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

func (e *Endpoint) httpClient() *http.Client {
	if e.Client != nil {
		return e.Client
	}
	return http.DefaultClient
}

func (e *Endpoint) clock() vclock.Clock {
	if e.Clock != nil {
		return e.Clock
	}
	return vclock.Wall
}

// sleep waits d on the endpoint's clock, or returns early with the
// context error if the endpoint is cancelled (watchdog, shutdown).
func (e *Endpoint) sleep(d time.Duration) error {
	return vclock.SleepCtx(e.clock(), e.ctx(), d)
}

// retry runs attempt — one Transport call — under the backoff policy: nil
// or a permanent error ends the operation, a Retryable backs off (its
// After hint clamped by the policy) and tries again. Every operation is
// idempotent on the server (uploads by their key), so resending is safe.
func (e *Endpoint) retry(op string, attempt func(context.Context, Transport) error) error {
	b := e.Retry.withDefaults()
	ctx, t := e.ctx(), e.Transport
	if t == nil {
		t = (*httpTransport)(e)
	}
	var last Retryable
	for i := 0; i < b.MaxAttempts; i++ {
		if i > 0 {
			e.Obs.Counter("amigo_endpoint_retries_total", obs.L("op", op)).Add(1)
			if err := e.sleep(b.delay(i-1, last.After)); err != nil {
				return err
			}
		}
		err := attempt(ctx, t)
		if err == nil {
			return nil
		}
		var r Retryable // declared past the success return: errors.As moves it to the heap
		if !errors.As(err, &r) {
			return err
		}
		last = r
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
	}
	e.Obs.Counter("amigo_endpoint_retry_giveups_total", obs.L("op", op)).Add(1)
	e.Obs.Trace().Record("retry-giveup", obs.L("me", e.Name), obs.L("op", op))
	return fmt.Errorf("amigo: %s: giving up after %d attempts: %w", op, b.MaxAttempts, last.Err)
}

// drainLimit bounds how many leftover body bytes drainClose will read
// to recycle a connection. Control-plane responses are tiny; a body
// bigger than this (a confused proxy, a fault-truncated stream that
// never ends) is cheaper to abandon than to drain.
const drainLimit = 256 << 10

// drainClose discards any unread body bytes (up to drainLimit) before
// closing, so the underlying connection goes back into the keep-alive
// pool instead of being torn down (a fleet of MEs would otherwise churn
// one TCP connection per request).
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	resp.Body.Close()
}

// Register announces the ME to the control server.
func (e *Endpoint) Register() error {
	return e.retry("/v1/register", func(ctx context.Context, t Transport) error {
		return t.Register(ctx, e.Name, e.Dep.Country.ISO3)
	})
}

// Heartbeat reports current vitals, sampling the radio of the eSIM side.
func (e *Endpoint) Heartbeat() error {
	e.battery -= 0.002 // measurement drains the battery
	if e.battery < 0.05 {
		e.battery = 1 // the volunteer charged the phone
	}
	radio := e.Dep.Spec.RadioESIM.Sample(e.Src)
	v := Vitals{
		Battery: e.battery, RSSI: radio.RSSI, SNR: radio.SNR,
		CQI: radio.CQI, RAT: string(radio.RAT), ActiveID: "esim",
	}
	return e.retry("/v1/status", func(ctx context.Context, t Transport) error {
		return t.Heartbeat(ctx, e.Name, v)
	})
}

// Lease asks the server for up to max tasks, acknowledging everything
// leased so far (the server retires acked tasks and re-delivers unacked
// ones, so a lease response lost to a fault is recovered on the next
// call). An empty slice means the queue is drained.
func (e *Endpoint) Lease(max int) ([]Task, error) {
	var tasks []Task
	err := e.retry("lease", func(ctx context.Context, t Transport) (err error) {
		tasks, err = t.Lease(ctx, e.Name, max, e.acked)
		return err
	})
	if n := len(tasks); n > 0 && err == nil {
		e.acked = tasks[n-1].ID
	}
	return tasks, err
}

// Redeliver asks the server to restore this ME's full schedule — done,
// outstanding, and queued tasks, in original order — and resets the
// lease ack cursor. A restarted ME calls it after re-registering so a
// full replay re-leases every task; server-side idempotency keys keep
// the re-uploaded duplicates out of the dataset.
func (e *Endpoint) Redeliver() error {
	e.acked, e.drained = 0, false
	return e.retry("/v2/tasks/requeue", func(ctx context.Context, t Transport) error {
		return t.Requeue(ctx, e.Name)
	})
}

// Upload submits a result batch under an idempotency key derived from
// its content. The key makes resending always safe: if the server
// processed a batch but the response was lost, the retry is dropped as
// a duplicate rather than double-ingested.
func (e *Endpoint) Upload(results []Result) error {
	if len(results) == 0 {
		return nil
	}
	key := uploadKey(e.Name, results)
	return e.retry("results", func(ctx context.Context, t Transport) error {
		return t.Upload(ctx, key, results)
	})
}

// uploadKey derives a batch's idempotency key from its content: the ME
// name plus every result's (task ID, kind, config). A replayed or
// duplicated batch hashes identically, so the server keeps only the
// first copy; distinct batches differ because task IDs are unique per
// ME schedule.
//
// The hash is FNV-1a (64-bit) over me followed by "|<id>/<kind>/<config>"
// per result, folded in place: one key is one allocation, the string.
func uploadKey(me string, results []Result) string {
	h := fnv1a(fnvOffset64, me)
	var num [20]byte // a decimal int64, sign included
	for i := range results {
		r := &results[i]
		h = fnv1a(h, "|")
		h = fnv1a(h, strconv.AppendInt(num[:0], int64(r.TaskID), 10))
		h = fnv1a(h, "/")
		h = fnv1a(h, r.Kind)
		h = fnv1a(h, "/")
		h = fnv1a(h, r.Config)
	}
	return strconv.FormatUint(h, 16)
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// fnv1a folds s into the running 64-bit FNV-1a hash h (start it at
// fnvOffset64).
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// RunBatch leases up to max tasks, executes them in order, and uploads
// the results as one batch. It returns the number of tasks executed;
// zero means the queue is drained.
//
// A lease shorter than max held the ME's last tasks (Transport.Lease), so
// once they are uploaded the next call returns 0 without a request, and
// the one after leases again — how a polling ME sees new work. The
// skipped lease would only have acked the final batch (Server.LeaseAckInto).
//
// With Realize the batch's summed network time is spent in one wait before
// the upload: nothing of an ME is observable between two tasks of a lease
// (no request, no heartbeat, no crash point), and on a vclock.Virtual one
// wait is one trip through the quiescence barrier instead of one per task.
// A wait cut short by Ctx returns its error at once; nothing is uploaded.
func (e *Endpoint) RunBatch(max int) (int, error) {
	if e.drained {
		e.drained = false
		return 0, nil
	}
	tasks, err := e.Lease(max)
	if err != nil || len(tasks) == 0 {
		return 0, err
	}
	results := make([]Result, len(tasks))
	var spent time.Duration
	for i, task := range tasks {
		var d time.Duration
		results[i], d = e.run(task)
		spent += d
	}
	e.seal(results)
	if e.Realize {
		if err := e.sleep(spent); err != nil {
			return 0, err
		}
	}
	if err := e.Upload(results); err != nil {
		return 0, err
	}
	// Short of max as transports clamp it, to [1, maxLeaseBatch] (tasks is non-empty).
	e.drained = len(tasks) < min(max, maxLeaseBatch)
	return len(tasks), nil
}

// Execute runs the instrumentation for a task against the right session
// and, with Realize, waits out the task's network time. A cancelled Ctx
// cuts the wait short; the next control-plane operation reports it.
func (e *Endpoint) Execute(task Task) Result {
	res, spent := e.run(task)
	results := []Result{res}
	e.seal(results)
	if e.Realize {
		_ = e.sleep(spent) // see the doc comment
	}
	return results[0]
}

// run executes one task and returns its result — the payload still in
// the scratch, for the caller to seal — and its network time, which the
// caller spends. The per-kind histogram observes execution plus,
// with Realize, that network time — whoever waits it out.
func (e *Endpoint) run(task Task) (Result, time.Duration) {
	m := e.metrics()
	h, ok := m.exec[task.Kind]
	if !ok {
		h = m.exec["other"]
	}
	start := e.clock().Now()
	res, spent := e.execute(task)
	took := e.clock().Now().Sub(start)
	if e.Realize {
		took += spent
	}
	h.Observe(float64(took) / float64(time.Millisecond))
	return res, spent
}

// payload is what a task kind uploads: a typed observation that writes
// itself as the JSON the ME uploads (payload.go) and knows the network
// time an actual ME would have spent producing it. The time is derived
// only from the uploaded fields, so the pacing is as deterministic as the
// dataset itself.
type payload interface {
	networkMs() float64
	appendJSON(b []byte) ([]byte, error)
}

func (p SpeedtestPayload) networkMs() float64 {
	ms := 2 * p.LatencyMs // probe round trips
	if p.DownMbps > 0 {
		ms += 8 * 16 / p.DownMbps * 1e3 // 16 MB down at the observed rate
	}
	if p.UpMbps > 0 {
		ms += 8 * 8 / p.UpMbps * 1e3 // 8 MB up
	}
	return ms
}

func (t mtrTrace) networkMs() float64 {
	var ms float64
	for _, h := range t.hops {
		if h.Responded && h.BestRTTms > 0 {
			ms += 3 * h.BestRTTms // three probes per TTL
		} else {
			ms += 500 // timed-out hop: one probe-timeout window
		}
	}
	return ms
}

func (p CDNPayload) networkMs() float64 { return p.TotalMs }

func (p DNSPayload) networkMs() float64 { return p.DurationMs }

// networkMs is the fixed stats-for-nerds watch window.
func (p VideoPayload) networkMs() float64 { return 120 * 1e3 }

// execute runs the task and appends its payload to the endpoint's
// scratch; the result's Payload aliases it until seal. It also returns
// the task's simulated network time (zero for a failed task), computed
// from the typed payload.
func (e *Endpoint) execute(task Task) (Result, time.Duration) {
	res := Result{TaskID: task.ID, ME: e.Name, Kind: task.Kind, Config: task.Config}
	session, err := e.attach(task.Config)
	if err != nil {
		res.Error = err.Error()
		return res, 0
	}
	var p payload
	switch task.Kind {
	case "speedtest":
		p, err = runSpeedtest(session, e.Src)
	case "mtr":
		p, err = runMTR(session, task.Target, e.Src)
	case "cdn":
		p, err = runCDN(session, task.Target, e.Src)
	case "dns":
		p, err = runDNS(session, e.Src)
	case "video":
		p, err = runVideo(session, e.Src)
	default:
		err = fmt.Errorf("amigo: unknown task kind %q", task.Kind)
	}
	if err != nil {
		res.Error = err.Error()
		return res, 0
	}
	if e.scratch == nil {
		e.scratch = wire.GetBuf()
	}
	start := len(*e.scratch)
	buf, err := p.appendJSON(*e.scratch)
	if err != nil {
		*e.scratch = buf[:start]
		res.Error = err.Error()
		return res, 0
	}
	*e.scratch = buf
	res.OK = true
	res.Payload = buf[start:]
	return res, time.Duration(p.networkMs() * float64(time.Millisecond))
}

// seal moves the payloads of results — encoded one after another into the
// scratch, in order — onto one freshly allocated slab of exactly their
// size, and returns the scratch to the pool. The slab belongs to the
// batch: DirectTransport hands the payload slices to the server as they
// are, so it is never reused.
func (e *Endpoint) seal(results []Result) {
	if e.scratch == nil {
		return
	}
	slab := make([]byte, len(*e.scratch))
	copy(slab, *e.scratch)
	wire.PutBuf(e.scratch)
	e.scratch = nil
	for i := range results {
		if n := len(results[i].Payload); n > 0 {
			results[i].Payload, slab = slab[:n:n], slab[n:]
		}
	}
}

func (e *Endpoint) attach(config string) (*airalo.Session, error) {
	switch config {
	case string(mno.ESIM):
		return e.Dep.AttachESIM(e.Src)
	case string(mno.PhysicalSIM):
		return e.Dep.AttachSIM(e.Src)
	default:
		return nil, fmt.Errorf("amigo: unknown config %q", config)
	}
}

// Payload types (the JSON the MEs upload).

// SpeedtestPayload is the uploaded Ookla-style observation.
type SpeedtestPayload struct {
	Server    string  `json:"server"`
	LatencyMs float64 `json:"latency_ms"`
	DownMbps  float64 `json:"down_mbps"`
	UpMbps    float64 `json:"up_mbps"`
	CQI       int     `json:"cqi"`
	RAT       string  `json:"rat"`
	PublicIP  string  `json:"public_ip"`
}

func runSpeedtest(s *airalo.Session, src *rng.Source) (SpeedtestPayload, error) {
	r, err := measure.Speedtest(s, src)
	if err != nil {
		return SpeedtestPayload{}, err
	}
	return SpeedtestPayload{
		Server: r.ServerCity, LatencyMs: r.LatencyMs,
		DownMbps: r.DownMbps, UpMbps: r.UpMbps,
		CQI: r.Radio.CQI, RAT: string(r.Radio.RAT),
		PublicIP: s.PublicIP.String(),
	}, nil
}

// MTRPayload is the schema of one uploaded traceroute. The endpoint
// writes it from the measured hops (mtrTrace) and ingest reads it back
// with MTRDecoder; the type is the reference encoding/json holds both to.
type MTRPayload struct {
	Target string   `json:"target"`
	Hops   []MTRHop `json:"hops"`
}

// MTRHop is one hop line.
type MTRHop struct {
	TTL   int     `json:"ttl"`
	Addr  string  `json:"addr,omitempty"` // empty when the hop timed out
	RTTms float64 `json:"rtt_ms,omitempty"`
}

// mtrTrace is what an mtr task measured: the traceroute's hops as netsim
// recorded them, uploaded as an MTRPayload.
type mtrTrace struct {
	target string
	hops   []netsim.HopRecord
}

func runMTR(s *airalo.Session, target string, src *rng.Source) (mtrTrace, error) {
	tr, err := measure.Traceroute(s, target, src)
	if err != nil {
		return mtrTrace{}, err
	}
	return mtrTrace{target: target, hops: tr.Raw.Hops}, nil
}

// CDNPayload is one uploaded CDN fetch.
type CDNPayload struct {
	Provider string  `json:"provider"`
	Cache    string  `json:"cache"`
	DNSMs    float64 `json:"dns_ms"`
	TotalMs  float64 `json:"total_ms"`
	Bytes    int     `json:"bytes"`
}

func runCDN(s *airalo.Session, provider string, src *rng.Source) (CDNPayload, error) {
	r, err := measure.CDNFetch(s, provider, src)
	if err != nil {
		return CDNPayload{}, err
	}
	return CDNPayload{
		Provider: r.Provider, Cache: string(r.Cache),
		DNSMs: r.DNSMs, TotalMs: r.TotalMs, Bytes: r.SizeBytes,
	}, nil
}

// DNSPayload is one uploaded resolver identification.
type DNSPayload struct {
	Resolver   string  `json:"resolver"`
	City       string  `json:"city"`
	Country    string  `json:"country"`
	DurationMs float64 `json:"duration_ms"`
	DoH        bool    `json:"doh"`
}

func runDNS(s *airalo.Session, src *rng.Source) (DNSPayload, error) {
	r, err := measure.DNSLookup(s, src)
	if err != nil {
		return DNSPayload{}, err
	}
	return DNSPayload{
		Resolver: r.Resolver.Addr.String(), City: r.Resolver.City,
		Country: r.Resolver.Country, DurationMs: r.DurationMs, DoH: r.DoH,
	}, nil
}

// VideoPayload is one uploaded stats-for-nerds summary.
type VideoPayload struct {
	Dominant  string             `json:"dominant"`
	Rebuffers int                `json:"rebuffers"`
	Shares    map[string]float64 `json:"shares"`
}

func runVideo(s *airalo.Session, src *rng.Source) (VideoPayload, error) {
	st, err := measure.StreamVideo(s, video.Config{DurationSec: 120}, src)
	if err != nil {
		return VideoPayload{}, err
	}
	shares := map[string]float64{}
	for name := range st.SecondsAt {
		shares[name] = st.Share(name)
	}
	return VideoPayload{Dominant: st.DominantResolution, Rebuffers: st.Rebuffers, Shares: shares}, nil
}
