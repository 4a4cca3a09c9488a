package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// The data-plane routes the gateway forwards. A route's constant indexes
// the per-shard request counters, and routeNames gives it its
// gateway_requests_total{route=...} label.
const (
	routeV1Register = iota
	routeV1Status
	routeV2Requeue
	routeV3Lease
	routeV3Results
	routeAdminSchedule
	numRoutes
)

var routeNames = [numRoutes]string{
	routeV1Register:    "v1/register",
	routeV1Status:      "v1/status",
	routeV2Requeue:     "v2/requeue",
	routeV3Lease:       "v3/lease",
	routeV3Results:     "v3/results",
	routeAdminSchedule: "admin/schedule",
}

// Options configures a Gateway.
type Options struct {
	// Obs, when set, receives gateway metrics: per-shard per-route
	// request counters and admin merge counters. The registry also backs
	// the gateway's own GET /admin/metrics and /admin/trace routes.
	Obs *obs.Registry
}

// topology is one immutable generation of the gateway's world: the
// placement ring, the backend per shard, and the per-shard request
// counters. Requests load it once and use it consistently; topology
// changes swap the whole value.
type topology struct {
	ring     *Ring
	backends []http.Handler
	reqs     [][]*obs.Counter // [shard][route] request counters
}

func newTopology(backends []http.Handler, reg *obs.Registry) *topology {
	t := &topology{
		ring:     NewRing(len(backends)),
		backends: append([]http.Handler(nil), backends...),
	}
	t.reqs = make([][]*obs.Counter, len(backends))
	for s := range t.reqs {
		t.reqs[s] = make([]*obs.Counter, numRoutes)
		for rt, name := range routeNames {
			// Counter handles are shared per (name, labels), so a swap to
			// the same shard count reuses the existing series.
			t.reqs[s][rt] = reg.Counter("gateway_requests_total",
				obs.L("shard", strconv.Itoa(s)), obs.L("route", name))
		}
	}
	return t
}

// Gateway fronts N shard backends with the single-server HTTP surface:
// MEs talk to one base URL and never learn the topology. Every data-
// plane request is routed whole to the ME's owning shard (no fan-out on
// the hot path); the admin read routes merge across shards in canonical
// shard-index order. The topology is swappable at runtime: SetBackend
// replaces one shard's handler in place (the shard-kill recovery hook),
// and Pause/Resume quiesce the whole data plane and install a new ring
// — possibly with a different shard count — which is how a live reshard
// goes atomic (see fleet.ShardedFleet.Reshard).
type Gateway struct {
	obs *obs.Registry
	mux *http.ServeMux

	mu   sync.Mutex // serializes topology swaps; readers load topo lock-free
	topo atomic.Pointer[topology]

	// gate quiesces the request plane across a topology change: every
	// request holds it shared for its whole round trip; Pause takes it
	// exclusive, so Pause returns only once in-flight requests have
	// drained, and new requests block (not fail) until Resume. Blocking
	// matters: MEs parked in a gated round trip count as busy to the
	// virtual clock and burn no bounded-retry budget, so a swap is
	// invisible to them except as latency.
	gate sync.RWMutex
}

// NewGateway builds a gateway over the given backends — typically each
// an amigo Server's Handler()+AdminHandler() composite (see Mount). The
// ring is derived from len(backends).
func NewGateway(backends []http.Handler, opts Options) *Gateway {
	if len(backends) == 0 {
		panic("shard: NewGateway needs at least one backend")
	}
	g := &Gateway{obs: opts.Obs}
	g.topo.Store(newTopology(backends, opts.Obs))
	g.mux = g.buildMux()
	return g
}

// Mount composes one amigo server's protocol and admin handlers into a
// single backend: /v1/, /v3/ and /v2/ (the requeue control route) from
// the protocol handler, /admin/ from the admin handler.
func Mount(protocol, admin http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", protocol)
	mux.Handle("/v2/", protocol)
	mux.Handle("/v3/", protocol)
	mux.Handle("/admin/", admin)
	return mux
}

// Ring exposes the gateway's current placement ring (read-only), so
// harnesses and benchmarks can schedule tasks directly against the
// owning shard. After a Resume with a different shard count this
// returns the new ring.
func (g *Gateway) Ring() *Ring { return g.topo.Load().ring }

// Backend returns shard i's current backend.
func (g *Gateway) Backend(i int) http.Handler {
	return g.topo.Load().backends[i]
}

// Backends returns a copy of the current backend list, in shard order.
func (g *Gateway) Backends() []http.Handler {
	t := g.topo.Load()
	return append([]http.Handler(nil), t.backends...)
}

// SetBackend atomically replaces shard i's backend. In-flight requests
// finish against the handler they resolved; new requests see the
// replacement. This is the shard-kill recovery hook: the harness swaps
// in a fresh server wired to the dead shard's surviving WAL.
func (g *Gateway) SetBackend(i int, h http.Handler) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.topo.Load()
	next := append([]http.Handler(nil), cur.backends...)
	next[i] = h
	g.topo.Store(&topology{ring: cur.ring, backends: next, reqs: cur.reqs})
}

// Pause gates the control plane for a topology swap: it blocks new
// requests at the door and returns only once every in-flight request
// has drained. Between Pause and Resume the world is quiescent — every
// result a shard ever acknowledged is in its sink, and nothing new can
// arrive — which is the window a reshard copies WALs in. Requests
// arriving while paused simply wait; callers must pair every Pause
// with exactly one Resume, and must not call Pause from a goroutine
// that is itself serving a gateway request (that request can never
// drain).
func (g *Gateway) Pause() { g.gate.Lock() }

// Resume installs backends as the new topology — rebuilding the ring,
// so the shard count may differ from the previous generation — and
// reopens the gate. Blocked requests then route by the new ring.
func (g *Gateway) Resume(backends []http.Handler) {
	if len(backends) == 0 {
		panic("shard: Resume needs at least one backend")
	}
	g.mu.Lock()
	g.topo.Store(newTopology(backends, g.obs))
	g.mu.Unlock()
	g.gate.Unlock()
}

// ServeHTTP implements http.Handler.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.gate.RLock()
	defer g.gate.RUnlock()
	g.mux.ServeHTTP(w, r)
}

func (g *Gateway) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	// Data plane: peek the ME, forward whole to its shard.
	mux.HandleFunc("POST /v1/register", g.routeJSON(routeV1Register))
	mux.HandleFunc("POST /v1/status", g.routeJSON(routeV1Status))
	mux.HandleFunc("POST /v2/tasks/requeue", g.routeJSON(routeV2Requeue))
	mux.HandleFunc("POST /v3/tasks/lease", g.routeV3(routeV3Lease))
	mux.HandleFunc("POST /v3/results", g.routeV3(routeV3Results))
	mux.HandleFunc("POST /admin/schedule", g.routeJSON(routeAdminSchedule))
	// Admin read surface: merged views.
	mux.HandleFunc("GET /admin/results", g.handleMergedResults)
	mux.HandleFunc("GET /admin/mes", g.handleMergedMEs)
	// The gateway's own observability, covering gateway counters plus
	// whatever the harness registered alongside (per-shard WAL metrics).
	mux.Handle("GET /admin/metrics", g.obs.MetricsHandler())
	mux.Handle("GET /admin/trace", g.obs.TraceHandler())
	return mux
}

// pooledBody is the request body the backend reads: a reader over the
// pooled buffer the gateway read the upload into. The gateway touches
// each uploaded byte once — socket to buffer — and the shard decodes
// straight out of that buffer's reader into its own pooled frame.
type pooledBody struct {
	bytes.Reader
	buf *[]byte
}

func (*pooledBody) Close() error { return nil }

var bodyPool = sync.Pool{New: func() any { return new(pooledBody) }}

// takeBody borrows a body with an empty wire.GetBuf buffer.
func takeBody() *pooledBody {
	b := bodyPool.Get().(*pooledBody)
	b.buf = wire.GetBuf()
	return b
}

// release re-pools the buffer and the body. The routes defer it, so it
// runs once the backend has returned: nothing may alias the buffer
// afterwards.
func (b *pooledBody) release() {
	b.Reset(nil)
	wire.PutBuf(b.buf)
	b.buf = nil
	bodyPool.Put(b)
}

// forwardBody hands the buffered body to me's shard as the request's
// body. One topology load covers both the placement and the backend, so
// a concurrent swap can never route by one ring and serve from another.
func (g *Gateway) forwardBody(w http.ResponseWriter, r *http.Request, b *pooledBody, me string, route int) {
	b.Reset(*b.buf)
	r.Body = b
	r.ContentLength = int64(len(*b.buf))
	t := g.topo.Load()
	shard := t.ring.Shard(me)
	t.reqs[shard][route].Inc()
	t.backends[shard].ServeHTTP(w, r)
}

// maxPresize is how much of a declared Content-Length the gateway
// allocates before the bytes arrive; a longer body grows the buffer as
// it is read, so a client cannot reserve 64 MiB with a header.
const maxPresize = 1 << 20

// readJSONBody reads the whole (bounded) request body into b's buffer,
// sized from Content-Length when the client declared one. It answers
// 400 / 413 itself and reports whether the body is ready.
func readJSONBody(w http.ResponseWriter, r *http.Request, b *pooledBody) bool {
	if r.ContentLength > wire.MaxJSONBody {
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return false
	}
	// One spare byte lets the read that discovers EOF land without
	// growing the buffer.
	buf := slices.Grow((*b.buf)[:0], int(min(r.ContentLength, maxPresize))+1)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 1)
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		*b.buf = buf // keep any growth pooled
		if len(buf) > wire.MaxJSONBody {
			http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
			return false
		}
		if err == io.EOF {
			return true
		}
		if err != nil {
			http.Error(w, "reading body", http.StatusBadRequest)
			return false
		}
	}
}

// jsonObjectME peeks {"me": ...} out of a JSON object body.
func jsonObjectME(body []byte) (string, error) {
	var obj struct {
		ME string `json:"me"`
	}
	if err := json.Unmarshal(body, &obj); err != nil {
		return "", err
	}
	return obj.ME, nil
}

// routeJSON reads the body into a pooled buffer, peeks the ME out of
// the JSON object, and forwards. A body the peek cannot parse is
// rejected here with 400 — the shard would reject it identically, so
// nothing observable changes versus a single server.
func (g *Gateway) routeJSON(route int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b := takeBody()
		defer b.release()
		if !readJSONBody(w, r, b) {
			return
		}
		me, err := jsonObjectME(*b.buf)
		if err != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		g.forwardBody(w, r, b, me, route)
	}
}

// readFrame reads the one v3 frame that must be the whole body into
// b's buffer, sized from the frame header — so a header declaring more
// than wire.MaxFrame is refused before any payload is read. It returns
// the parsed header; the buffer then holds header and payload.
func readFrame(body io.Reader, b *pooledBody) (wire.Header, error) {
	buf := slices.Grow((*b.buf)[:0], wire.HeaderLen)[:wire.HeaderLen]
	if _, err := io.ReadFull(body, buf); err != nil {
		return wire.Header{}, errNotOneFrame
	}
	h, err := wire.ParseHeader(buf)
	if err != nil {
		return h, err
	}
	// Ask for one byte more than the header declares: the frame is the
	// whole body exactly when that read comes back one byte short at EOF.
	frame := wire.HeaderLen + int(h.N)
	buf = slices.Grow(buf, int(h.N)+1)[:frame+1]
	n, err := io.ReadFull(body, buf[wire.HeaderLen:])
	*b.buf = buf[:frame] // keep any growth pooled
	if n != int(h.N) || (err != io.EOF && err != io.ErrUnexpectedEOF) {
		return h, errNotOneFrame
	}
	return h, nil
}

var errNotOneFrame = errors.New("shard: body is not exactly one v3 frame")

// routeV3 peeks the ME out of a binary wire frame: the header names the
// message type, and LeaseRequest.ME / the first upload record's ME
// names the owning shard. Only the routing-relevant prefix is decoded
// strictly here; the shard's handler decodes (and rejects) the full
// frame as usual.
func (g *Gateway) routeV3(route int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b := takeBody()
		defer b.release()
		h, err := readFrame(r.Body, b)
		if err != nil {
			http.Error(w, "bad frame", http.StatusBadRequest)
			return
		}
		payload := (*b.buf)[wire.HeaderLen:]
		dec := wire.GetDecoder()
		var me string
		switch h.Type {
		case wire.MsgLeaseRequest:
			var req wire.LeaseRequest
			req, err = dec.LeaseRequest(payload)
			me = req.ME
		case wire.MsgResults:
			me, err = dec.FirstResultME(payload)
		default:
			err = fmt.Errorf("shard: unroutable frame type 0x%02x", h.Type)
		}
		wire.PutDecoder(dec)
		if err != nil {
			http.Error(w, "bad frame", http.StatusBadRequest)
			return
		}
		g.forwardBody(w, r, b, me, route)
	}
}

// memResponse is a minimal in-memory http.ResponseWriter for the
// synthetic sub-requests the merged admin routes issue against shard
// backends.
type memResponse struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func (m *memResponse) Header() http.Header {
	if m.hdr == nil {
		m.hdr = make(http.Header)
	}
	return m.hdr
}

func (m *memResponse) WriteHeader(code int) {
	if m.code == 0 {
		m.code = code
	}
}

func (m *memResponse) Write(p []byte) (int, error) {
	if m.code == 0 {
		m.code = http.StatusOK
	}
	return m.body.Write(p)
}

// shardGet issues a synthetic GET against shard i's backend in the
// given topology snapshot, asking for the representation accept names
// ("" = the backend's default, JSON). The body is appended to resp, so
// one memResponse can collect several shards' bodies back to back.
// Non-200 statuses are returned as errors carrying the status code.
func shardGet(t *topology, i int, path, accept string, resp *memResponse) (int, error) {
	req, err := http.NewRequest(http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp.code = 0
	t.backends[i].ServeHTTP(resp, req)
	if resp.code == 0 {
		resp.code = http.StatusOK
	}
	if resp.code != http.StatusOK {
		return resp.code, fmt.Errorf("shard %d: %s: HTTP %d", i, path, resp.code)
	}
	return resp.code, nil
}

// adminGet is shardGet for a JSON response, decoded into out.
func adminGet(t *topology, i int, path string, out any) (int, error) {
	var resp memResponse
	code, err := shardGet(t, i, path, "", &resp)
	if err != nil {
		return code, err
	}
	if err := json.Unmarshal(resp.body.Bytes(), out); err != nil {
		return code, fmt.Errorf("shard %d: %s: %w", i, path, err)
	}
	return code, nil
}

// resultsPage mirrors the amigo admin results response.
type resultsPage struct {
	Cursor  int               `json:"cursor"`
	Results []json.RawMessage `json:"results"`
}

// mergedPage accumulates one merged results page in the representation
// the client asked for: raw JSON results, or (v3) the shards' own
// MsgResults frames back to back, passed through undecoded.
type mergedPage struct {
	v3     bool
	n      int // results merged so far
	json   []json.RawMessage
	frames memResponse
}

// read merges shard i's results [local, local+want) into the page and
// returns how many the shard served (fewer when it serves bounded
// pages). A shard that appended past the probe must not leak
// post-snapshot results into the page: want is what the snapshot has
// left, and a shard serving more than it is cut back (JSON) or refused
// (v3 — its frame would have to be re-encoded to be cut).
func (m *mergedPage) read(t *topology, i, local, want int) (int, error) {
	path := fmt.Sprintf("/admin/results?cursor=%d&limit=%d", local, want)
	if !m.v3 {
		var page resultsPage
		if _, err := adminGet(t, i, path, &page); err != nil {
			return 0, err
		}
		got := min(len(page.Results), want)
		m.json = append(m.json, page.Results[:got]...)
		m.n += got
		return got, nil
	}
	off := m.frames.body.Len()
	if _, err := shardGet(t, i, path, wire.ContentType, &m.frames); err != nil {
		return 0, err
	}
	got, err := countResults(m.frames.body.Bytes()[off:])
	if err == nil && got > want {
		err = fmt.Errorf("served %d results for limit %d", got, want)
	}
	if err != nil {
		return 0, fmt.Errorf("shard %d: %s: %w", i, path, err)
	}
	m.n += got
	return got, nil
}

// countResults sums the record counts of back-to-back MsgResults
// frames, reading each frame's header and leading count and nothing
// else — the client decodes (and validates) the records.
func countResults(frames []byte) (int, error) {
	total := 0
	for len(frames) > 0 {
		h, err := wire.ParseHeader(frames)
		if err != nil {
			return 0, err
		}
		end := wire.HeaderLen + int(h.N)
		if h.Type != wire.MsgResults || end > len(frames) {
			return 0, errors.New("shard: body is not a sequence of results frames")
		}
		n, err := wire.ResultCount(frames[wire.HeaderLen:end])
		if err != nil {
			return 0, err
		}
		total += n
		frames = frames[end:]
	}
	return total, nil
}

// write answers the merged request: next is the global cursor one past
// the page.
func (m *mergedPage) write(w http.ResponseWriter, next int) {
	if !m.v3 {
		if m.json == nil {
			m.json = []json.RawMessage{}
		}
		writeJSON(w, map[string]any{"cursor": next, "results": m.json})
		return
	}
	w.Header().Set(wire.CursorHeader, strconv.Itoa(next))
	w.Header().Set("Content-Type", wire.ContentType)
	w.Write(m.frames.body.Bytes()) // a failed write means the client is gone
}

// handleMergedResults serves GET /admin/results with the single-server
// contract — a page of results by cursor and limit, cursor=-1 returning
// just the current cursor, as JSON {"cursor": next, "results": [...]} or,
// for Accept: application/vnd.amigo.v3, as MsgResults frames with next
// in X-Amigo-Cursor — over the concatenation of all shards' logs in
// shard-index order. A v3 page is the shards' own frames passed through:
// the gateway reads each frame's record count and decodes nothing.
//
// The global cursor maps onto per-shard cursors via a prefix-sum
// snapshot of the shard log lengths, probed once up front. Within one
// request the merge is a consistent view of that snapshot: every
// per-shard read is clamped to min(want, probedTotal-local), so a shard
// appending between the probe and the reads can neither shift the
// prefix sums (duplicating records) nor leak post-snapshot results into
// the page. Across separate paged requests the mapping is stable only
// while uploads are quiescent (growth in earlier shards shifts later
// shards' global offsets), which matches how the fleet driver uses it:
// results are paged out after the campaign has drained, exactly as with
// one server. If any shard's sink cannot be read back (501), the merged
// route answers 501 — a partial merge would silently drop a shard's
// worth of results.
func (g *Gateway) handleMergedResults(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cursor, ok := intParam(w, q.Get("cursor"), "cursor")
	if !ok {
		return
	}
	limit, ok := intParam(w, q.Get("limit"), "limit")
	if !ok {
		return
	}
	page := mergedPage{v3: r.Header.Get("Accept") == wire.ContentType}

	t := g.topo.Load()
	n := t.ring.Shards()
	lens := make([]int, n)
	total := 0
	for i := range lens {
		var probe memResponse
		code, err := shardGet(t, i, "/admin/results?cursor=-1", wire.ContentType, &probe)
		if err == nil {
			if lens[i], err = strconv.Atoi(probe.Header().Get(wire.CursorHeader)); err != nil {
				err = fmt.Errorf("shard %d: cursor probe: %w", i, err)
			}
		}
		if err != nil {
			if code == http.StatusNotImplemented {
				http.Error(w, "results not readable: a shard's sink has no cursor support", http.StatusNotImplemented)
			} else {
				http.Error(w, err.Error(), http.StatusBadGateway)
			}
			return
		}
		total += lens[i]
	}

	if cursor < 0 {
		page.write(w, total)
		return
	}
	if limit <= 0 {
		limit = total // "no limit": one page covers everything
	}

	prefix := 0
	for i := 0; i < n && page.n < limit; i++ {
		// Page through this shard's log; shards may serve bounded pages
		// (walsink does), so loop until the snapshot length is covered.
		// Advance by what was actually merged, not the shard's own
		// cursor: a post-snapshot append must not skip ahead.
		for local := max(cursor-prefix, 0); local < lens[i] && page.n < limit; {
			got, err := page.read(t, i, local, min(lens[i]-local, limit-page.n))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			if got == 0 {
				break // shard shrank?! — serve what we have rather than spin
			}
			local += got
		}
		prefix += lens[i]
	}
	g.obs.Counter("gateway_admin_merges_total").Inc()
	page.write(w, cursor+page.n)
}

// intParam parses an optional integer query parameter. A missing value
// is 0; a malformed one answers 400 and returns ok=false — silently
// treating garbage as 0 would replay the whole log as a "successful"
// read.
func intParam(w http.ResponseWriter, raw, name string) (int, bool) {
	if raw == "" {
		return 0, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		http.Error(w, "bad "+name, http.StatusBadRequest)
		return 0, false
	}
	return v, true
}

// handleMergedMEs serves GET /admin/mes as the sorted union of every
// shard's registered MEs.
func (g *Gateway) handleMergedMEs(w http.ResponseWriter, r *http.Request) {
	t := g.topo.Load()
	var all []string
	for i := 0; i < t.ring.Shards(); i++ {
		var mes []string
		if _, err := adminGet(t, i, "/admin/mes", &mes); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		all = append(all, mes...)
	}
	sort.Strings(all)
	writeJSON(w, all)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, "encoding response", http.StatusInternalServerError)
	}
}
