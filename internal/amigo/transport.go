package amigo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"roamsim/internal/wire"
)

// Transport carries one attempt of each of the ME's four control-plane
// operations. An attempt returns nil, a Retryable, or a permanent error
// (one wrapping ErrUnknownME when the server does not know the ME);
// Endpoint.retry is the one backoff, give-up and idempotency layer above
// it. There are two implementations and nothing selects between
// protocols: HTTP (a nil Endpoint.Transport) and DirectTransport.
type Transport interface {
	Register(ctx context.Context, me, country string) error
	// Lease reports v unless it is zero, then acknowledges every
	// delivered task ID <= ack and returns up to max tasks (max clamped to
	// [1, maxLeaseBatch]), none once the queue is drained, and fewer than
	// max only when they are all the ME has left (Server.leaseVitals).
	Lease(ctx context.Context, me string, max, ack int, v Vitals) ([]Task, error)
	// Upload submits a batch under its idempotency key (Server.SubmitKeyed).
	Upload(ctx context.Context, key string, results []Result) error
	Requeue(ctx context.Context, me string) error
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

func (d DirectTransport) Register(_ context.Context, me, country string) error {
	d.Server.Register(me, country)
	return nil
}

func (d DirectTransport) Lease(_ context.Context, me string, max, ack int, v Vitals) ([]Task, error) {
	return d.Server.leaseVitals(me, min(max, maxLeaseBatch), ack, v, nil)
}

// Upload reports a full spool as the Retryable its 429 is over HTTP.
func (d DirectTransport) Upload(_ context.Context, key string, results []Result) error {
	err := d.Server.SubmitKeyed(key, results)
	if errors.Is(err, ErrSpoolFull) {
		return Retryable{Err: err, After: d.Server.busyHint()}
	}
	return err
}

func (d DirectTransport) Requeue(_ context.Context, me string) error {
	_, err := d.Server.Requeue(me)
	return err
}

// httpTransport is the HTTP Transport: v3 frames for lease and upload,
// JSON for the rest. It is the Endpoint under a second method set, so
// BaseURL, Client and Obs are read per call: callers assign them late.
type httpTransport Endpoint

// The JSON control bodies, one type per route for both ends. Fields are in
// sorted key order: chaos draws truncation offsets into these bytes, so
// their layout is part of a seed's fault schedule.
type (
	registerBody struct {
		Country string `json:"country"`
		ME      string `json:"me"`
	}
	requeueBody struct {
		ME string `json:"me"`
	}
)

func (t *httpTransport) Register(ctx context.Context, me, country string) error {
	return t.postJSON(ctx, "/v1/register", registerBody{country, me})
}

func (t *httpTransport) Requeue(ctx context.Context, me string) error {
	return t.postJSON(ctx, "/v2/tasks/requeue", requeueBody{me})
}

func (t *httpTransport) postJSON(ctx context.Context, path string, body any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := t.post(ctx, path, "application/json", buf, "")
	if err == nil {
		drainClose(resp)
	}
	return err
}

func (t *httpTransport) Upload(ctx context.Context, key string, results []Result) error {
	ebuf := wire.GetBuf()
	defer wire.PutBuf(ebuf)
	*ebuf = wire.AppendResults((*ebuf)[:0], results)
	resp, err := t.post(ctx, "/v3/results", wire.ContentType, *ebuf, key)
	if err == nil {
		drainClose(resp)
	}
	return err
}

func (t *httpTransport) Lease(ctx context.Context, me string, max, ack int, v Vitals) ([]Task, error) {
	ebuf := wire.GetBuf()
	defer wire.PutBuf(ebuf)
	*ebuf = wire.AppendLeaseRequest((*ebuf)[:0], wire.LeaseRequest{ME: me, Max: max, Ack: ack, Vitals: v})
	resp, err := t.post(ctx, "/v3/tasks/lease", wire.ContentType, *ebuf, "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNoContent {
		drainClose(resp)
		return nil, nil
	}
	rbuf := wire.GetBuf()
	defer wire.PutBuf(rbuf)
	h, payload, err := wire.ReadFrame(resp.Body, (*rbuf)[:0])
	*rbuf = payload
	drainClose(resp)
	var tasks []Task
	if err == nil && h.Type != wire.MsgTasks {
		err = fmt.Errorf("wire: unexpected message type 0x%02x", h.Type)
	} else if err == nil {
		dec := wire.GetDecoder()
		// Tasks carry no byte fields: the decoded batch owns all its data
		// and rbuf can go straight back to the pool.
		tasks, err = dec.Tasks(payload, nil)
		wire.PutDecoder(dec)
	}
	if err != nil {
		// Truncated or garbled frame: the batch stays unacked on the
		// server and the retry re-delivers the same tasks.
		return nil, Retryable{Err: fmt.Errorf("amigo: lease: decoding response: %w", err)}
	}
	return tasks, nil
}

// post sends one request and returns its 2xx response, body unread; any
// other outcome comes back as the error the Transport contract asks for,
// the body drained. A failed connection is Retryable.
func (t *httpTransport) post(ctx context.Context, path, contentType string, body []byte, key string) (*http.Response, error) {
	e := (*Endpoint)(t)
	req, err := http.NewRequestWithContext(e.reqContext(ctx), http.MethodPost, e.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	m := e.metrics()
	m.request(path)
	resp, err := e.httpClient().Do(req)
	if err != nil {
		return nil, Retryable{Err: err}
	}
	if resp.StatusCode < 300 {
		return resp, nil
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		m.c429.Add(1)
	}
	defer drainClose(resp)
	return nil, statusErr(path, resp)
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
