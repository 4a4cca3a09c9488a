package amigo

import (
	"errors"
	"net/http"
	"sync"

	"roamsim/internal/wire"
)

// v3 batch routes: ack-cursor leases, idempotency-keyed uploads and
// 429 + Retry-After backpressure over internal/wire frames. The serving
// path is allocation-free in steady state: frame buffers, decoders and
// []Task/[]Result scratch all cycle through pools, and decoded result
// payloads are detached onto one owned slab per batch before they
// reach the spool.

var taskSlicePool = sync.Pool{
	New: func() any {
		s := make([]Task, 0, maxLeaseBatch)
		return &s
	},
}

var resultSlicePool = sync.Pool{
	New: func() any {
		s := make([]Result, 0, 256)
		return &s
	},
}

// readV3Frame negotiates the content type and reads one frame of the
// wanted message type into the pooled buffer, writing the HTTP error
// itself on failure. The returned payload aliases *buf.
func (s *Server) readV3Frame(w http.ResponseWriter, r *http.Request, want byte, buf *[]byte) ([]byte, bool) {
	if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
		http.Error(w, "expected "+wire.ContentType, http.StatusUnsupportedMediaType)
		return nil, false
	}
	h, payload, err := wire.ReadFrame(r.Body, (*buf)[:0])
	*buf = payload // keep any growth pooled
	if err != nil || h.Type != want {
		http.Error(w, "bad v3 frame", http.StatusBadRequest)
		return nil, false
	}
	return payload, true
}

// handleV3Lease is POST /v3/tasks/lease: a MsgLeaseRequest frame in, a
// MsgTasks frame out, flagged drained when it holds every task the ME has
// left (wire.AppendLease); 204 when nothing is left, which is drained too.
// The ME is required (Ack cannot be negative on the wire — uvarints are
// unsigned); Server.lease serves the rest, and an unknown ME is 404 and
// leases nothing.
func (s *Server) handleV3Lease(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	payload, ok := s.readV3Frame(w, r, wire.MsgLeaseRequest, buf)
	if !ok {
		return
	}
	dec := wire.GetDecoder()
	req, err := dec.LeaseRequest(payload)
	wire.PutDecoder(dec)
	if err != nil || req.ME == "" {
		http.Error(w, "bad lease", http.StatusBadRequest)
		return
	}
	tp := taskSlicePool.Get().(*[]Task)
	tasks, drained, err := s.lease(req, (*tp)[:0])
	*tp = tasks
	defer taskSlicePool.Put(tp)
	if err != nil {
		rejectErr(w, err)
		return
	}
	if len(tasks) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	*buf = wire.AppendLease((*buf)[:0], tasks, drained)
	s.writeFrame(w, *buf)
}

// handleV3Results is POST /v3/results: a MsgResults frame in, 204 out
// (429 + Retry-After when the spool is full or smaller than the batch).
// A batch whose Idempotency-Key header was already accepted is dropped
// (SubmitKeyed). A frame ending in a lease record is answered with that
// lease's reply, a MsgTasks frame even when it holds no tasks, or 204 when
// the lease failed (Server.upload); a lease naming another ME than the
// first result is 400.
func (s *Server) handleV3Results(w http.ResponseWriter, r *http.Request) {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	payload, ok := s.readV3Frame(w, r, wire.MsgResults, buf)
	if !ok {
		return
	}
	// Refuse a batch the spool can never hold before its count sizes a []Result.
	if n, err := wire.ResultCount(payload); err == nil && n > s.spoolCap {
		s.met.spoolRejected.Add(1)
		s.rejectBusy(w)
		return
	}
	dec := wire.GetDecoder()
	rp := resultSlicePool.Get().(*[]Result)
	defer resultSlicePool.Put(rp)
	batch, next, err := dec.Upload(payload, (*rp)[:0])
	*rp = batch
	wire.PutDecoder(dec)
	if err != nil {
		http.Error(w, "bad results", http.StatusBadRequest)
		return
	}
	// The decoded payloads alias the pooled frame buffer; move them onto
	// owned storage before they outlive this request (Submit copies the
	// Result structs, not the bytes their Payload fields point at).
	detachPayloads(batch)
	var dst []Task // a lease reply fits its pooled capacity: Max is clamped to it
	if next.ME != "" {
		tp := taskSlicePool.Get().(*[]Task)
		defer taskSlicePool.Put(tp)
		dst = (*tp)[:0]
	}
	tasks, drained, err := s.upload(r.Header.Get("Idempotency-Key"), batch, next, dst)
	switch {
	case errors.Is(err, errLeaseME):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case err != nil:
		s.rejectBusy(w)
	case len(tasks) == 0 && !drained:
		w.WriteHeader(http.StatusNoContent)
	default:
		*buf = wire.AppendLease((*buf)[:0], tasks, drained)
		s.writeFrame(w, *buf)
	}
}

// handleV3Schedule is POST /admin/schedule: one or more MsgSchedule frames
// in, one MsgTasks frame per frame out, in body order, holding that
// frame's queued tasks under their IDs (see ScheduleBatch). Every frame is
// decoded and checked before any is scheduled (wire.Decoder.Schedules), so
// a body refused anywhere — 413 over wire.MaxFrame bytes, 400 otherwise —
// schedules nothing.
func (s *Server) handleV3Schedule(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); ct != wire.ContentType {
		http.Error(w, "expected "+wire.ContentType, http.StatusUnsupportedMediaType)
		return
	}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	body, err := wire.ReadBody(r.Body, r.ContentLength, *buf)
	*buf = body // keep any growth pooled
	if err != nil {
		badBody(w, err)
		return
	}
	tp := taskSlicePool.Get().(*[]Task)
	defer taskSlicePool.Put(tp)
	dec := wire.GetDecoder()
	tasks, frames, err := dec.Schedules(body, (*tp)[:0], nil)
	*tp = tasks
	wire.PutDecoder(dec)
	if err != nil {
		badBody(w, err)
		return
	}
	out := wire.GetBuf()
	defer wire.PutBuf(out)
	for _, f := range frames {
		batch := tasks[:f.Tasks]
		tasks = tasks[f.Tasks:]
		ids, _ := s.ScheduleBatch(f.ME, batch) // scheduling cannot fail
		for i := range batch {
			batch[i].ID = ids[i]
		}
		*out = wire.AppendTasks(*out, batch)
	}
	s.writeFrame(w, *out)
}

// badBody refuses a request body: 413 over wire.MaxFrame bytes, else 400.
func badBody(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, wire.ErrBodyTooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	http.Error(w, err.Error(), code)
}

// detachPayloads copies every payload in the batch onto one freshly
// allocated slab — a single allocation per batch whose ownership
// transfers to the sink — so the frame buffer the payloads currently
// alias can be safely recycled.
func detachPayloads(batch []Result) {
	total := 0
	for i := range batch {
		total += len(batch[i].Payload)
	}
	if total == 0 {
		return
	}
	slab := make([]byte, 0, total)
	for i := range batch {
		if len(batch[i].Payload) == 0 {
			continue
		}
		slab = append(slab, batch[i].Payload...)
		batch[i].Payload = slab[len(slab)-len(batch[i].Payload):]
	}
}
