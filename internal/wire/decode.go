package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// Strict decoding. Every accepted payload is in canonical form — see
// the package comment — so decode(frame) followed by re-encode
// reproduces the input byte for byte (FuzzFrameRoundTrip pins this).

var (
	errTruncated    = errors.New("wire: truncated payload")
	errNonMinimal   = errors.New("wire: non-minimal varint")
	errTagOrder     = errors.New("wire: field tags not strictly ascending")
	errUnknownTag   = errors.New("wire: unknown field tag")
	errZeroField    = errors.New("wire: zero-valued field encoded (canonical form omits it)")
	errTrailing     = errors.New("wire: trailing bytes after payload")
	errBadBool      = errors.New("wire: boolean field value is not 1")
	errCountTooBig  = errors.New("wire: record count exceeds payload size")
	errCountBound   = errors.New("wire: task count exceeds MaxScheduleCount")
	errIntOverflow  = errors.New("wire: varint overflows int")
	errRecordLength = errors.New("wire: record length exceeds payload")
	errLeaseNoME    = errors.New("wire: an upload's lease record names no ME")
)

// reader is a strict cursor over one payload.
type reader struct {
	b   []byte
	off int
}

func (r *reader) rem() int { return len(r.b) - r.off }

// uvarint reads a minimal-form LEB128 varint.
func (r *reader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	start := r.off
	for {
		if r.off >= len(r.b) {
			return 0, errTruncated
		}
		c := r.b[r.off]
		r.off++
		if shift == 63 && c > 1 {
			return 0, errIntOverflow
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		shift += 7
		if shift > 63 {
			return 0, errIntOverflow
		}
	}
	if r.off-start != uvarintLen(v) {
		return 0, errNonMinimal
	}
	return v, nil
}

// nonzero reads a uvarint field value, which must not be zero
// (canonical form omits zero fields).
func (r *reader) nonzero() (uint64, error) {
	v, err := r.uvarint()
	if err == nil && v == 0 {
		err = errZeroField
	}
	return v, err
}

// uint reads a non-zero uvarint that must fit in a non-negative int.
func (r *reader) uint() (int, error) {
	v, err := r.nonzero()
	if err == nil && v > math.MaxInt64 {
		err = errIntOverflow
	}
	return int(v), err
}

// flag reads a boolean field's value, which is always 1 (false is
// omitted).
func (r *reader) flag() (bool, error) {
	v, err := r.uvarint()
	if err == nil && v != 1 {
		err = errBadBool
	}
	return true, err
}

// tag reads the next field tag, which must be above the last one read.
func (r *reader) tag(last *byte) (byte, error) {
	tag := r.b[r.off]
	r.off++
	if tag <= *last {
		return 0, errTagOrder
	}
	*last = tag
	return tag, nil
}

// bytes reads a uvarint length followed by that many raw bytes,
// returned as a subslice of the payload (no copy).
func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errZeroField
	}
	if n > uint64(r.rem()) {
		return nil, errTruncated
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// maxIntern caps the decoder's string-interning table so a hostile
// peer streaming unique strings cannot grow it without bound; past the
// cap, novel strings fall back to plain allocation.
const maxIntern = 8192

// Decoder decodes v3 payloads. It is NOT safe for concurrent use; pool
// decoders (GetDecoder/PutDecoder) so each request borrows a private
// one. The decoder interns the protocol's small string vocabulary —
// ME names, task kinds, targets, SIM configs, error strings — so
// steady-state decoding performs zero allocations.
type Decoder struct {
	intern map[string]string
}

// NewDecoder returns a Decoder with a warm-capacity intern table.
func NewDecoder() *Decoder {
	return &Decoder{intern: make(map[string]string, 64)}
}

// str reads a string field and interns it. The map lookup keyed by
// string(b) does not allocate (the compiler elides the conversion); only
// the first sighting of a distinct string pays for a copy.
func (d *Decoder) str(r *reader) (string, error) {
	b, err := r.bytes()
	if len(b) == 0 {
		return "", err
	}
	if s, ok := d.intern[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if len(d.intern) < maxIntern {
		d.intern[s] = s
	}
	return s, nil
}

// LeaseRequest decodes a MsgLeaseRequest payload. Strings are
// interned; the caller owns validation (ME required, Max bounds).
func (d *Decoder) LeaseRequest(payload []byte) (LeaseRequest, error) {
	r := reader{b: payload}
	var req LeaseRequest
	for last := byte(0); r.rem() > 0; {
		tag, err := r.tag(&last)
		if err != nil {
			return LeaseRequest{}, err
		}
		var b []byte
		switch tag {
		case tagLeaseME:
			req.ME, err = d.str(&r)
		case tagLeaseMax:
			req.Max, err = r.uint()
		case tagLeaseAck:
			req.Ack, err = r.uint()
		case tagLeaseVitals:
			if b, err = r.record(); err == nil {
				err = d.vitals(b, &req.Vitals)
			}
		case tagLeaseRedeliver:
			req.Redeliver, err = r.flag()
		default:
			return LeaseRequest{}, errUnknownTag
		}
		if err != nil {
			return LeaseRequest{}, err
		}
	}
	return req, nil
}

// vitals decodes a lease's vitals record into v. The record cannot be
// empty: zero Vitals are omitted, not encoded.
func (d *Decoder) vitals(rec []byte, v *Vitals) error {
	if len(rec) == 0 {
		return errZeroField
	}
	r := reader{b: rec}
	for last := byte(0); r.rem() > 0; {
		tag, err := r.tag(&last)
		if err != nil {
			return err
		}
		var u uint64
		switch tag {
		case tagVitalsBattery:
			u, err = r.nonzero()
			v.Battery = math.Float64frombits(u)
		case tagVitalsRSSI:
			u, err = r.nonzero()
			v.RSSI = math.Float64frombits(u)
		case tagVitalsSNR:
			u, err = r.nonzero()
			v.SNR = math.Float64frombits(u)
		case tagVitalsCQI:
			u, err = r.nonzero()
			v.CQI = int(u)
		case tagVitalsRAT:
			v.RAT, err = d.str(&r)
		case tagVitalsActiveID:
			v.ActiveID, err = d.str(&r)
		default:
			return errUnknownTag
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// record reads one length-prefixed record and returns it as a
// subslice.
func (r *reader) record() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.rem()) {
		return nil, errRecordLength
	}
	rec := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return rec, nil
}

// count reads the leading record count of a tasks/results payload. A
// record costs at least one byte (its length prefix), so any count
// larger than the remaining payload is rejected before any
// preallocation happens.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.rem()) {
		return 0, errCountTooBig
	}
	return int(v), nil
}

// grow extends dst by n decodable slots without zeroing recycled
// capacity.
func grow[T Task | Result](dst []T, n int) []T {
	need := len(dst) + n
	if cap(dst) >= need {
		return dst[:need]
	}
	grown := make([]T, need)
	copy(grown, dst)
	return grown
}

// Tasks decodes a MsgTasks payload, appending onto dst (pass a
// recycled slice re-sliced to [:0] to decode allocation-free). A
// declared count over MaxScheduleCount is refused before dst grows.
func (d *Decoder) Tasks(payload []byte, dst []Task) ([]Task, error) {
	r := reader{b: payload}
	base := len(dst)
	dst, err := d.taskRecords(&r, dst)
	if err == nil && r.rem() != 0 {
		return dst[:base], errTrailing
	}
	return dst, err
}

// Lease decodes a lease reply — a MsgTasks payload and the drained flag
// after its records (see AppendLease) — appending the tasks onto dst as
// Tasks does.
func (d *Decoder) Lease(payload []byte, dst []Task) ([]Task, bool, error) {
	r := reader{b: payload}
	base := len(dst)
	dst, err := d.taskRecords(&r, dst)
	if err != nil || r.rem() == 0 {
		return dst, false, err
	}
	drained, err := r.flag()
	if err == nil && r.rem() != 0 {
		err = errTrailing
	}
	if err != nil {
		return dst[:base], false, err
	}
	return dst, drained, nil
}

// taskRecords reads a tasks payload's count and records onto dst,
// leaving r after the last record; on error dst comes back as it was.
func (d *Decoder) taskRecords(r *reader, dst []Task) ([]Task, error) {
	n, err := r.count()
	if err != nil {
		return dst, err
	}
	if n > MaxScheduleCount {
		return dst, errCountBound
	}
	base := len(dst)
	dst = grow(dst, n)
	for i := 0; i < n; i++ {
		rec, err := r.record()
		if err != nil {
			return dst[:base], err
		}
		if err := d.task(rec, &dst[base+i]); err != nil {
			return dst[:base], err
		}
	}
	return dst, nil
}

// Schedule decodes a MsgSchedule payload: the ME, and the tasks after it
// appended onto dst as Tasks decodes them.
func (d *Decoder) Schedule(payload []byte, dst []Task) (string, []Task, error) {
	r := reader{b: payload}
	me, err := d.str(&r)
	if err == nil {
		dst, err = d.Tasks(payload[r.off:], dst)
	}
	return me, dst, err
}

// ScheduleFrame is one frame of a schedule body, as Schedules decodes it.
type ScheduleFrame struct {
	ME string
	// Tasks counts the frame's tasks, which follow the previous frames'
	// in the decoded []Task.
	Tasks int
	// Frame is the whole frame, header included; it aliases the body.
	Frame []byte
}

var (
	// ErrBodyTooLarge refuses a body over MaxFrame bytes (ReadBody,
	// Schedules): a body of many frames is bounded as one frame is.
	ErrBodyTooLarge = errors.New("wire: body exceeds MaxFrame bytes")
	// errKindless refuses what every ME would execute into errors.
	errKindless = errors.New("wire: a schedule needs at least one task, each with a kind")
)

// Schedules decodes a schedule body: one or more MsgSchedule frames back
// to back, appending every frame's tasks onto dst in body order and one
// ScheduleFrame per frame onto frames. The body is taken whole or not at
// all. It is an error, with dst and frames returned as they were, when
// the body is empty or over MaxFrame bytes, when any frame is not a
// MsgSchedule, is torn, does not decode or names no ME, when a frame
// holds no task or a task without a kind, or when the frames hold more
// than MaxScheduleCount tasks in all (each frame's own count is bounded
// before dst grows, as Schedule bounds it).
func (d *Decoder) Schedules(body []byte, dst []Task, frames []ScheduleFrame) ([]Task, []ScheduleFrame, error) {
	base, fbase := len(dst), len(frames)
	var err error
	switch {
	case len(body) == 0:
		err = errTruncated
	case len(body) > MaxFrame:
		err = ErrBodyTooLarge
	}
	for off := 0; err == nil && off < len(body); {
		var h Header
		if h, err = ParseHeader(body[off:]); err != nil {
			break
		}
		end := off + HeaderLen + int(h.N)
		switch {
		case h.Type != MsgSchedule:
			err = fmt.Errorf("wire: message type 0x%02x in a schedule body", h.Type)
		case end > len(body):
			err = errTruncated
		}
		start := len(dst)
		var me string
		if err == nil {
			me, dst, err = d.Schedule(body[off+HeaderLen:end], dst)
		}
		switch {
		case err != nil:
		case len(dst)-base > MaxScheduleCount:
			err = errCountBound
		case len(dst) == start || slices.ContainsFunc(dst[start:], func(t Task) bool { return t.Kind == "" }):
			err = errKindless
		default:
			frames = append(frames, ScheduleFrame{ME: me, Tasks: len(dst) - start, Frame: body[off:end]})
			off = end
		}
	}
	if err != nil {
		return dst[:base], frames[:fbase], err
	}
	return dst, frames, nil
}

func (d *Decoder) task(rec []byte, t *Task) error {
	*t = Task{}
	r := reader{b: rec}
	for last := byte(0); r.rem() > 0; {
		tag, err := r.tag(&last)
		if err != nil {
			return err
		}
		switch tag {
		case tagTaskID:
			t.ID, err = r.uint()
		case tagTaskKind:
			t.Kind, err = d.str(&r)
		case tagTaskTarget:
			t.Target, err = d.str(&r)
		case tagTaskConfig:
			t.Config, err = d.str(&r)
		default:
			return errUnknownTag
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Results decodes a MsgResults payload, appending onto dst.
//
// Ownership: each decoded Result's Payload ALIASES the input payload
// buffer — no copy is made, which is what keeps the decode
// allocation-free. The caller must either consume the results before
// reusing the buffer or detach the payloads onto owned storage first
// (the amigo v3 ingest path copies them onto a per-batch slab before
// the frame buffer returns to its pool).
//
// A lease record after the records is trailing bytes here: only Upload
// reads one.
func (d *Decoder) Results(payload []byte, dst []Result) ([]Result, error) {
	r := reader{b: payload}
	base := len(dst)
	dst, err := d.resultRecords(&r, dst)
	if err == nil && r.rem() != 0 {
		return dst[:base], errTrailing
	}
	return dst, err
}

// Upload decodes an upload (see AppendUpload): a MsgResults payload, whose
// results it appends onto dst as Results does, and the lease record that
// may end it — the zero LeaseRequest when there is none. A lease record
// must name the ME; the caller owns the rest of its validation.
func (d *Decoder) Upload(payload []byte, dst []Result) ([]Result, LeaseRequest, error) {
	r := reader{b: payload}
	base := len(dst)
	dst, err := d.resultRecords(&r, dst)
	if err != nil || r.rem() == 0 {
		return dst, LeaseRequest{}, err
	}
	var next LeaseRequest
	rec, err := r.record()
	if err == nil && r.rem() != 0 {
		err = errTrailing
	}
	if err == nil {
		next, err = d.LeaseRequest(rec)
	}
	if err == nil && next.ME == "" {
		err = errLeaseNoME
	}
	if err != nil {
		return dst[:base], LeaseRequest{}, err
	}
	return dst, next, nil
}

// resultRecords reads a results payload's count and records onto dst,
// leaving r after the last record; on error dst comes back as it was.
func (d *Decoder) resultRecords(r *reader, dst []Result) ([]Result, error) {
	n, err := r.count()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst = grow(dst, n)
	for i := 0; i < n; i++ {
		rec, err := r.record()
		if err != nil {
			return dst[:base], err
		}
		if err := d.result(rec, &dst[base+i]); err != nil {
			return dst[:base], err
		}
	}
	return dst, nil
}

func (d *Decoder) result(rec []byte, res *Result) error {
	*res = Result{}
	r := reader{b: rec}
	for last := byte(0); r.rem() > 0; {
		tag, err := r.tag(&last)
		if err != nil {
			return err
		}
		var b []byte
		switch tag {
		case tagResultTaskID:
			res.TaskID, err = r.uint()
		case tagResultME:
			res.ME, err = d.str(&r)
		case tagResultKind:
			res.Kind, err = d.str(&r)
		case tagResultConfig:
			res.Config, err = d.str(&r)
		case tagResultOK:
			res.OK, err = r.flag()
		case tagResultError:
			res.Error, err = d.str(&r)
		case tagResultPayload:
			if b, err = r.bytes(); err == nil {
				res.Payload = b // aliases the payload buffer; see Results
			}
		case tagResultUploaded:
			var v uint64
			if v, err = r.nonzero(); err == nil {
				res.Uploaded = time.Unix(0, int64(v)).UTC()
			}
		default:
			return errUnknownTag
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ResultCount returns the record count a MsgResults payload declares,
// reading nothing past it — how the shard gateway accounts for the
// result pages it passes through undecoded.
func ResultCount(payload []byte) (int, error) {
	r := reader{b: payload}
	return r.count()
}

// FirstResultME returns the ME name of the first record in a
// MsgResults payload without decoding the whole batch — the shard
// gateway's routing peek: one upload batch always belongs to a single
// ME, so the first record names the owning shard. An empty batch
// returns "". The decode of that first record is as strict as Results;
// the remaining records are not validated here (the target shard's
// handler decodes the full frame).
func (d *Decoder) FirstResultME(payload []byte) (string, error) {
	r := reader{b: payload}
	n, err := r.count()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	rec, err := r.record()
	if err != nil {
		return "", err
	}
	var res Result
	if err := d.result(rec, &res); err != nil {
		return "", err
	}
	return res.ME, nil
}

// ReadResults reads the body of a v3 results page — MsgResults frames
// back to back until a clean end of stream — decoding every frame onto
// dst. Each frame is read into a fresh buffer of exactly its length,
// which the decoded payloads alias and thereby own: nothing is pooled,
// so the results stay valid for as long as the caller keeps them.
func (d *Decoder) ReadResults(rd io.Reader, dst []Result) ([]Result, error) {
	for {
		h, frame, err := ReadFrame(rd, nil)
		if errors.Is(err, io.EOF) {
			return dst, nil // no byte of a next frame: the previous one was the last
		}
		if err == nil && h.Type != MsgResults {
			err = fmt.Errorf("wire: unexpected message type 0x%02x in a results page", h.Type)
		}
		if err == nil {
			dst, err = d.Results(frame, dst)
		}
		if err != nil {
			return dst, err
		}
	}
}

// ReadBody reads a request body to its end onto dst[:0], grown once when
// its length is declared (length >= 0). A body over MaxFrame bytes is
// ErrBodyTooLarge: from its declared length alone, else once the read
// passes the bound.
func ReadBody(rd io.Reader, length int64, dst []byte) ([]byte, error) {
	if length > MaxFrame {
		return dst[:0], ErrBodyTooLarge
	}
	b := bytes.NewBuffer(dst[:0])
	b.Grow(int(max(length, 0)) + bytes.MinRead) // ReadFrom's last read needs MinRead free
	_, err := b.ReadFrom(io.LimitReader(rd, MaxFrame+1))
	if err == nil && b.Len() > MaxFrame {
		err = ErrBodyTooLarge
	}
	return b.Bytes(), err
}

// ReadFrame reads exactly one frame from rd: the fixed header, then a
// payload of the header-declared length into buf (grown once if its
// capacity is short — pass a pooled buffer re-sliced to [:0] and the
// steady state reads allocation-free). It returns the parsed header
// and the buffer with len == payload length; the caller keeps
// ownership of (and should re-pool) the returned buffer. The error
// wraps io.EOF only when rd ended before the frame's first byte — a
// clean end of a frame sequence; a stream torn anywhere inside a frame
// wraps io.ErrUnexpectedEOF.
func ReadFrame(rd io.Reader, buf []byte) (Header, []byte, error) {
	// The header is read into buf (not a local array) so that nothing
	// escapes into the heap through the io.Reader interface; the
	// payload then overwrites it.
	if cap(buf) < HeaderLen {
		buf = make([]byte, HeaderLen)
	}
	if _, err := io.ReadFull(rd, buf[:HeaderLen]); err != nil {
		return Header{}, buf[:0], fmt.Errorf("wire: reading header: %w", err)
	}
	h, err := ParseHeader(buf[:HeaderLen])
	if err != nil {
		return Header{}, buf[:0], err
	}
	n := int(h.N)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(rd, buf); err != nil {
		if err == io.EOF {
			// The header promised a payload: a stream that ends here is
			// torn, and must not read as the io.EOF of a clean end.
			err = io.ErrUnexpectedEOF
		}
		return Header{}, buf[:0], fmt.Errorf("wire: reading payload: %w", err)
	}
	return h, buf, nil
}
