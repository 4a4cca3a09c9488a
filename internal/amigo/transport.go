package amigo

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"roamsim/internal/wire"
)

// Transport carries one attempt of each of the ME's two control-plane
// operations, an upload perhaps carrying the lease after it. An attempt
// returns nil, a Retryable, or a permanent error
// (one wrapping ErrUnknownME when the server does not know the ME);
// Endpoint.retry is the one backoff, give-up and idempotency layer above
// it. There are two implementations and nothing selects between
// protocols: HTTP (a nil Endpoint.Transport) and DirectTransport.
type Transport interface {
	// Lease restores the ME's whole schedule if req.Redeliver, reports
	// req.Vitals unless they are zero, then acknowledges every delivered
	// task ID <= req.Ack and returns up to req.Max tasks (clamped to
	// [1, maxLeaseBatch]), and drained when they are all the ME has left
	// — none, once the schedule is done (Server.lease).
	Lease(ctx context.Context, req wire.LeaseRequest) (tasks []Task, drained bool, err error)
	// Upload submits a batch under its idempotency key (Server.SubmitKeyed)
	// and then, when next names an ME, serves next as Lease does and
	// returns its reply (Server.upload). next must name the ME of the
	// batch's first result. The lease part never fails the upload: a reply
	// of no tasks and not drained means no lease was answered — none was
	// asked, or it failed — and the ME's next Lease asks as usual.
	Upload(ctx context.Context, key string, results []Result, next wire.LeaseRequest) (tasks []Task, drained bool, err error)
}

// Retryable is a failed attempt worth repeating: a connection error, a
// damaged response, a 429 or 5xx, a full spool. After is the server's
// wait hint (Retry-After), zero when it gave none.
type Retryable struct {
	Err   error
	After time.Duration
}

func (r Retryable) Error() string { return r.Err.Error() }
func (r Retryable) Unwrap() error { return r.Err }

// DirectTransport is the in-process Transport: each operation is the
// Server method its HTTP handler calls, with no socket and no codec in
// between, so uploaded payloads stay the ME's own bytes. Nothing here
// waits on the network; ctx is left to the retry layer.
type DirectTransport struct{ Server *Server }

func (d DirectTransport) Lease(_ context.Context, req wire.LeaseRequest) ([]Task, bool, error) {
	return d.Server.lease(req, nil)
}

// Upload reports a full spool as the Retryable its 429 is over HTTP.
func (d DirectTransport) Upload(_ context.Context, key string, results []Result, next wire.LeaseRequest) ([]Task, bool, error) {
	tasks, drained, err := d.Server.upload(key, results, next, nil)
	if errors.Is(err, ErrSpoolFull) {
		return nil, false, Retryable{Err: err, After: d.Server.busyHint()}
	}
	return tasks, drained, err
}

// httpTransport is the HTTP Transport: one v3 frame each way. It is the
// Endpoint under a second method set, so BaseURL, Client and Obs are read
// per call: callers assign them late.
type httpTransport Endpoint

// Upload sends next as the frame's lease record (wire.AppendUpload) and
// reads the reply as Lease does, except that a 204 answers no lease. An
// upload without one reads no body.
func (t *httpTransport) Upload(ctx context.Context, key string, results []Result, next wire.LeaseRequest) ([]Task, bool, error) {
	ebuf := wire.GetBuf()
	defer wire.PutBuf(ebuf)
	*ebuf = wire.AppendUpload((*ebuf)[:0], results, next)
	resp, err := t.post(ctx, "/v3/results", http.Header{"Content-Type": frameType, "Idempotency-Key": {key}}, *ebuf)
	if err != nil {
		return nil, false, err
	}
	if next.ME == "" || resp.StatusCode == http.StatusNoContent {
		DrainClose(resp)
		return nil, false, nil
	}
	return readLease(resp, "results")
}

// Lease reads a 204 as drained with no tasks, and a MsgTasks frame with
// its drained flag (wire.Decoder.Lease).
func (t *httpTransport) Lease(ctx context.Context, req wire.LeaseRequest) ([]Task, bool, error) {
	ebuf := wire.GetBuf()
	defer wire.PutBuf(ebuf)
	*ebuf = wire.AppendLeaseRequest((*ebuf)[:0], req)
	resp, err := t.post(ctx, "/v3/tasks/lease", frameHeader, *ebuf)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode == http.StatusNoContent {
		DrainClose(resp)
		return nil, true, nil
	}
	return readLease(resp, "lease")
}

// readLease reads the lease reply in resp's body, a MsgTasks frame, and
// closes it. A damaged reply is Retryable: its tasks stay unacked on the
// server, and the retry — of the lease, or of the upload, whose results
// it then drops as a duplicate — re-sends the same ones.
func readLease(resp *http.Response, op string) ([]Task, bool, error) {
	rbuf := wire.GetBuf()
	defer wire.PutBuf(rbuf)
	h, payload, err := wire.ReadFrame(resp.Body, (*rbuf)[:0])
	*rbuf = payload
	DrainClose(resp)
	var tasks []Task
	var drained bool
	if err == nil && h.Type != wire.MsgTasks {
		err = fmt.Errorf("wire: unexpected message type 0x%02x", h.Type)
	} else if err == nil {
		dec := wire.GetDecoder()
		// Tasks carry no byte fields: the decoded batch owns all its data
		// and rbuf can go straight back to the pool.
		tasks, drained, err = dec.Lease(payload, nil)
		wire.PutDecoder(dec)
	}
	if err != nil {
		return nil, false, Retryable{Err: fmt.Errorf("amigo: %s: decoding response: %w", op, err)}
	}
	return tasks, drained, nil
}

// post sends one request and returns its 2xx response, body unread; any
// other outcome comes back as the error the Transport contract asks for,
// the body drained. A failed connection is Retryable, a redirect permanent.
func (t *httpTransport) post(ctx context.Context, path string, h http.Header, body []byte) (*http.Response, error) {
	e := (*Endpoint)(t)
	u, err := Route(e.BaseURL, path)
	if err != nil {
		return nil, err
	}
	m := e.metrics()
	m.request(path)
	if m.connTrace != nil {
		ctx = httptrace.WithClientTrace(ctx, m.connTrace)
	}
	resp, err := Send(ctx, e.Client, http.MethodPost, u, h, body)
	if err != nil {
		return nil, Retryable{Err: err}
	}
	if resp.StatusCode < 300 {
		return resp, nil
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		m.c429.Add(1)
	}
	defer DrainClose(resp)
	return nil, statusErr(path, resp)
}

// Shared read-only: neither a RoundTripper nor a server writes these.
var (
	frameType   = []string{wire.ContentType}
	frameHeader = http.Header{"Content-Type": frameType}
)

var routes sync.Map // [base, path] -> *url.URL

// Route parses base+path once per process; requests share the URL read-only.
func Route(base, path string) (*url.URL, error) {
	if u, ok := routes.Load([2]string{base, path}); ok {
		return u.(*url.URL), nil
	}
	u, err := url.Parse(base + path)
	if err == nil {
		routes.Store([2]string{base, path}, u)
	}
	return u, err
}

// Send makes every control-plane request of this package and fleet: one
// round trip on c's Transport (http.DefaultTransport when nil) under ctx.
// Unlike an http.Client it follows no redirect (a 3xx is returned) and
// keeps no cookies; a failed round trip is a *url.Error. A body is handed
// to net/http in memory, so headers and body share one write when they fit
// the Transport's write buffer (WriteBufferSize, 4 KiB by default); a
// larger request leaves in two, through a body-sized copy buffer.
func Send(ctx context.Context, c *http.Client, method string, u *url.URL, h http.Header, body []byte) (*http.Response, error) {
	req := http.Request{Method: method, URL: u, Header: h, Host: u.Host, ContentLength: int64(len(body))}
	if len(body) > 0 { // replayable by a retrying RoundTripper
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		req.Body, _ = req.GetBody()
	}
	rt := http.DefaultTransport
	if c != nil && c.Transport != nil {
		rt = c.Transport
	}
	resp, err := rt.RoundTrip(req.WithContext(ctx))
	if err != nil {
		err = &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: u.String(), Err: err}
	}
	return resp, err
}

// DrainClose reads up to 256 KiB left in a response body into a pooled
// buffer, then closes it: the connection goes back to the keep-alive pool
// (a fleet would otherwise churn one per request), and a larger body — a
// confused proxy, a stream that never ends — is cheaper to abandon.
func DrainClose(resp *http.Response) {
	buf := wire.GetBuf()
	for n, k, err := 0, 0, error(nil); err == nil && n < 256<<10; n += k {
		k, err = resp.Body.Read((*buf)[:min(cap(*buf), 256<<10-n)])
	}
	wire.PutBuf(buf)
	resp.Body.Close()
}

// statusErr is the one place a non-2xx status becomes an error:
// backpressure (429) and server failures (5xx) are Retryable with the
// response's Retry-After in whole seconds (the backoff policy clamps it,
// so a bogus huge value cannot stall an ME), 404 wraps ErrUnknownME, and
// every other status is permanent.
func statusErr(op string, resp *http.Response) error {
	err := fmt.Errorf("amigo: %s: HTTP %d", op, resp.StatusCode)
	switch code := resp.StatusCode; {
	case code == http.StatusTooManyRequests || code >= 500:
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return Retryable{Err: err, After: max(0, time.Duration(secs)*time.Second)}
	case code == http.StatusNotFound:
		return fmt.Errorf("%v: %w", err, ErrUnknownME)
	}
	return err
}
