package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
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
	errIntOverflow  = errors.New("wire: varint overflows int")
	errRecordLength = errors.New("wire: record length exceeds payload")
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

// uint reads a uvarint that must fit in a non-negative int and must
// not be zero (canonical form omits zero fields).
func (r *reader) uint() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v == 0 {
		return 0, errZeroField
	}
	if v > math.MaxInt64 {
		return 0, errIntOverflow
	}
	return int(v), nil
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

// str interns b as a string. The map lookup keyed by string(b) does
// not allocate (the compiler elides the conversion); only the first
// sighting of a distinct string pays for a copy.
func (d *Decoder) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.intern) < maxIntern {
		d.intern[s] = s
	}
	return s
}

// LeaseRequest decodes a MsgLeaseRequest payload. Strings are
// interned; the caller owns validation (ME required, Max bounds).
func (d *Decoder) LeaseRequest(payload []byte) (LeaseRequest, error) {
	r := reader{b: payload}
	var req LeaseRequest
	last := byte(0)
	for r.rem() > 0 {
		tag := r.b[r.off]
		r.off++
		if tag <= last {
			return LeaseRequest{}, errTagOrder
		}
		last = tag
		var err error
		switch tag {
		case tagLeaseME:
			var b []byte
			if b, err = r.bytes(); err == nil {
				req.ME = d.str(b)
			}
		case tagLeaseMax:
			req.Max, err = r.uint()
		case tagLeaseAck:
			req.Ack, err = r.uint()
		default:
			return LeaseRequest{}, errUnknownTag
		}
		if err != nil {
			return LeaseRequest{}, err
		}
	}
	return req, nil
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

// growTasks extends dst by n decodable slots without zeroing recycled
// capacity.
func growTasks(dst []Task, n int) []Task {
	need := len(dst) + n
	if cap(dst) >= need {
		return dst[:need]
	}
	grown := make([]Task, need)
	copy(grown, dst)
	return grown
}

func growResults(dst []Result, n int) []Result {
	need := len(dst) + n
	if cap(dst) >= need {
		return dst[:need]
	}
	grown := make([]Result, need)
	copy(grown, dst)
	return grown
}

// Tasks decodes a MsgTasks payload, appending onto dst (pass a
// recycled slice re-sliced to [:0] to decode allocation-free).
func (d *Decoder) Tasks(payload []byte, dst []Task) ([]Task, error) {
	r := reader{b: payload}
	n, err := r.count()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst = growTasks(dst, n)
	for i := 0; i < n; i++ {
		rec, err := r.record()
		if err != nil {
			return dst[:base], err
		}
		if err := d.task(rec, &dst[base+i]); err != nil {
			return dst[:base], err
		}
	}
	if r.rem() != 0 {
		return dst[:base], errTrailing
	}
	return dst, nil
}

func (d *Decoder) task(rec []byte, t *Task) error {
	*t = Task{}
	r := reader{b: rec}
	last := byte(0)
	for r.rem() > 0 {
		tag := r.b[r.off]
		r.off++
		if tag <= last {
			return errTagOrder
		}
		last = tag
		var err error
		var b []byte
		switch tag {
		case tagTaskID:
			t.ID, err = r.uint()
		case tagTaskKind:
			if b, err = r.bytes(); err == nil {
				t.Kind = d.str(b)
			}
		case tagTaskTarget:
			if b, err = r.bytes(); err == nil {
				t.Target = d.str(b)
			}
		case tagTaskConfig:
			if b, err = r.bytes(); err == nil {
				t.Config = d.str(b)
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

// Results decodes a MsgResults payload, appending onto dst.
//
// Ownership: each decoded Result's Payload ALIASES the input payload
// buffer — no copy is made, which is what keeps the decode
// allocation-free. The caller must either consume the results before
// reusing the buffer or detach the payloads onto owned storage first
// (the amigo v3 ingest path copies them onto a per-batch slab before
// the frame buffer returns to its pool).
func (d *Decoder) Results(payload []byte, dst []Result) ([]Result, error) {
	r := reader{b: payload}
	n, err := r.count()
	if err != nil {
		return dst, err
	}
	base := len(dst)
	dst = growResults(dst, n)
	for i := 0; i < n; i++ {
		rec, err := r.record()
		if err != nil {
			return dst[:base], err
		}
		if err := d.result(rec, &dst[base+i]); err != nil {
			return dst[:base], err
		}
	}
	if r.rem() != 0 {
		return dst[:base], errTrailing
	}
	return dst, nil
}

func (d *Decoder) result(rec []byte, res *Result) error {
	*res = Result{}
	r := reader{b: rec}
	last := byte(0)
	for r.rem() > 0 {
		tag := r.b[r.off]
		r.off++
		if tag <= last {
			return errTagOrder
		}
		last = tag
		var err error
		var b []byte
		switch tag {
		case tagResultTaskID:
			res.TaskID, err = r.uint()
		case tagResultME:
			if b, err = r.bytes(); err == nil {
				res.ME = d.str(b)
			}
		case tagResultKind:
			if b, err = r.bytes(); err == nil {
				res.Kind = d.str(b)
			}
		case tagResultConfig:
			if b, err = r.bytes(); err == nil {
				res.Config = d.str(b)
			}
		case tagResultOK:
			var v uint64
			if v, err = r.uvarint(); err == nil && v != 1 {
				err = errBadBool
			}
			res.OK = true
		case tagResultError:
			if b, err = r.bytes(); err == nil {
				res.Error = d.str(b)
			}
		case tagResultPayload:
			if b, err = r.bytes(); err == nil {
				res.Payload = b // aliases the payload buffer; see Results
			}
		case tagResultUploaded:
			var v uint64
			if v, err = r.uvarint(); err == nil {
				if v == 0 {
					err = errZeroField
				} else {
					res.Uploaded = time.Unix(0, int64(v)).UTC()
				}
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
