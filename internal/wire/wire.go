// Package wire is the v3 binary wire protocol for the AmiGo control
// plane: a length-prefixed, versioned frame codec for the batch lease
// request/response, schedule and result-batch payloads. At fleet scale
// (10k+ MEs) `encoding/json` would dominate the control-plane CPU
// profile on both ends; wire packs fields with `binary.BigEndian` —
// varint-packed integers and strings, explicit single-byte field tags. The codec carries data only: the protocol
// semantics (ack-cursor leases, idempotency keys, 429/Retry-After
// backpressure) live in internal/amigo, and the serial direct-call
// campaign (fleet.RunInProcess), which crosses no codec at all, is the
// byte-identical oracle a v3 campaign's dataset is checked against.
//
// # Frame layout
//
//	offset  bytes  field
//	0       1      magic 'R' (0x52)
//	1       1      magic '3' (0x33)
//	2       1      protocol version (0x03)
//	3       1      message type (MsgLeaseRequest / MsgTasks / MsgResults / MsgSchedule)
//	4       4      payload length, uint32 big-endian (<= MaxFrame)
//	8       N      payload
//
// # Payload grammar
//
// Integers are unsigned LEB128 varints ("uvarint"), strings and byte
// fields are a uvarint length followed by raw bytes. A record is a
// uvarint byte-length followed by its fields; each field is a
// single-byte tag followed by its value. The lease-request payload is
// one bare field sequence (no record prefix) whose optional vitals field
// is itself a record and whose optional redeliver flag is the uvarint 1;
// the tasks and results
// payloads are a uvarint record count followed by that many records; a
// schedule is the ME (a non-empty string) followed by the tasks payload.
// A lease reply is a tasks payload followed by the uvarint 1 when it holds
// every task the ME has left (drained; omitted when false, so nothing else
// may follow the records). An upload is a results payload that may end
// with a lease record — the uvarint byte-length of a lease-request field
// sequence, then that sequence, which must name the ME — asking for the
// lease the ME would send next; the server answers that upload with the
// lease reply instead of 204 No Content. Nothing else may follow a results
// payload's records: results pages and WAL records never carry a lease.
//
// A request body is one frame, except a schedule's: the body of POST
// /admin/schedule is one or more MsgSchedule frames back to back, answered
// by one MsgTasks frame per frame in body order, and taken whole or not at
// all (Decoder.Schedules) — at most MaxFrame bytes and MaxScheduleCount
// tasks in all. The shard gateway splits such a body by shard.
//
// # Canonical form
//
// Encoding is canonical and decoding is strict: fields appear in
// ascending tag order, zero-valued fields (0, "", empty bytes, false,
// zero time) are omitted, varints are minimal-length, and unknown or
// repeated tags are rejected. The payoff is the round-trip contract the
// fuzzers pin: any frame that decodes successfully re-encodes to the
// byte-identical frame, so v3 captures can be diffed, deduplicated and
// replayed as raw bytes.
//
// # Allocation discipline
//
// The codec is allocation-free in steady state: encoders append into
// caller-owned (poolable, see GetBuf) buffers, ReadFrame sizes its
// scratch from the frame header, Decoder interns the small string
// vocabulary (ME names, task kinds, SIM configs), and decoded result
// payloads alias the input buffer rather than copying — the caller
// owns the copy-out decision (see Decoder.Results). TestCodecZeroAlloc
// enforces 0 allocs/op for every encode and decode path.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Task is one instrumentation command for an ME. It is defined here, by
// the codec, and internal/amigo aliases it.
type Task struct {
	ID   int    `json:"id"`
	Kind string `json:"kind"` // "speedtest", "mtr", "cdn", "dns", "video"
	// Target parameterizes the task (SP name, CDN provider, ...).
	Target string `json:"target,omitempty"`
	// Config selects the SIM profile: "sim" or "esim".
	Config string `json:"config"`
}

// Result is an uploaded observation.
type Result struct {
	TaskID   int       `json:"task_id"`
	ME       string    `json:"me"`
	Kind     string    `json:"kind"`
	Config   string    `json:"config"`
	OK       bool      `json:"ok"`
	Error    string    `json:"error,omitempty"`
	Payload  []byte    `json:"payload,omitempty"`
	Uploaded time.Time `json:"uploaded"`
}

// Vitals are the device-health metrics an ME reports. They ride its next
// lease (LeaseRequest.Vitals); the zero value is "none to report".
type Vitals struct {
	Battery  float64 // 0..1
	RSSI     float64 // dBm
	SNR      float64 // dB
	CQI      int
	RAT      string // "4G" / "5G"
	ActiveID string // active SIM profile ("sim"/"esim")
}

// IsZero reports whether v carries nothing: every field, and every float's
// IEEE-754 bits, zero. Exactly the non-zero Vitals travel (-0 included).
func (v Vitals) IsZero() bool { return vitalsRecordLen(&v) == 0 }

// LeaseRequest is the v3 lease body: lease up to Max tasks,
// acknowledging every previously delivered task ID <= Ack, and report
// Vitals when they are not zero. Redeliver first restores the ME's whole
// schedule, as a restarted ME's first lease asks.
type LeaseRequest struct {
	ME        string
	Max       int
	Ack       int
	Vitals    Vitals
	Redeliver bool
}

// Frame constants.
const (
	Magic0  = 'R'
	Magic1  = '3'
	Version = 0x03
	// HeaderLen is the fixed frame header size.
	HeaderLen = 8
	// MaxFrame caps the payload length a header may declare (16 MiB);
	// a hostile or corrupt header cannot make ReadFrame balloon memory.
	MaxFrame = 1 << 24
)

// Message types.
const (
	MsgLeaseRequest byte = 0x01 // client -> server: LeaseRequest
	MsgTasks        byte = 0x02 // server -> client: []Task lease response (and drained flag), schedule reply
	MsgResults      byte = 0x03 // []Result: batch upload, perhaps with the next lease (client -> server), results page (server -> client)
	MsgSchedule     byte = 0x04 // operator -> server: an ME and the []Task to queue for it
)

// MaxScheduleCount bounds the tasks of a schedule, and so of any task
// batch; decoding refuses a larger declared count before its []Task
// grows, so a 16 MiB frame cannot buy a 900 MB slice.
const MaxScheduleCount = 1 << 16

// ContentType is the media type v3 frames travel under; the v3 HTTP
// handlers negotiate on it (anything else is 415) so a misdirected JSON
// client gets a typed refusal instead of a decode error.
const ContentType = "application/vnd.amigo.v3"

// CursorHeader is the response header that carries the next cursor of a
// results page (GET /admin/results), whose body is MsgResults frames.
const CursorHeader = "X-Amigo-Cursor"

// Field tags. Tags are per-message-type namespaces; within a record
// they must appear in strictly ascending order.
const (
	// LeaseRequest fields.
	tagLeaseME  = 0x01 // string
	tagLeaseMax = 0x02 // uvarint
	tagLeaseAck = 0x03 // uvarint
	// tagLeaseVitals is a record (uvarint byte-length, then the fields
	// below), omitted when the Vitals are zero. A float is the uvarint of
	// its IEEE-754 bits, CQI the uvarint of its two's-complement bits.
	tagLeaseVitals = 0x04
	// tagLeaseRedeliver is uvarint 1 when set (false is omitted).
	tagLeaseRedeliver = 0x05

	// Vitals fields.
	tagVitalsBattery  = 0x01
	tagVitalsRSSI     = 0x02
	tagVitalsSNR      = 0x03
	tagVitalsCQI      = 0x04
	tagVitalsRAT      = 0x05 // string
	tagVitalsActiveID = 0x06 // string

	// Task fields.
	tagTaskID     = 0x01 // uvarint
	tagTaskKind   = 0x02 // string
	tagTaskTarget = 0x03 // string
	tagTaskConfig = 0x04 // string

	// Result fields.
	tagResultTaskID   = 0x01 // uvarint
	tagResultME       = 0x02 // string
	tagResultKind     = 0x03 // string
	tagResultConfig   = 0x04 // string
	tagResultOK       = 0x05 // uvarint, always 1 (false is omitted)
	tagResultError    = 0x06 // string
	tagResultPayload  = 0x07 // bytes
	tagResultUploaded = 0x08 // uvarint, UnixNano (zero time omitted)
)

// Header is a parsed frame header.
type Header struct {
	Type byte
	// N is the payload length the header declares.
	N uint32
}

// ParseHeader validates the fixed 8-byte header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("wire: short header (%d bytes)", len(b))
	}
	if b[0] != Magic0 || b[1] != Magic1 {
		return Header{}, fmt.Errorf("wire: bad magic 0x%02x%02x", b[0], b[1])
	}
	if b[2] != Version {
		return Header{}, fmt.Errorf("wire: unsupported version %d", b[2])
	}
	typ := b[3]
	if typ < MsgLeaseRequest || typ > MsgSchedule {
		return Header{}, fmt.Errorf("wire: unknown message type 0x%02x", typ)
	}
	n := binary.BigEndian.Uint32(b[4:8])
	if n > MaxFrame {
		return Header{}, fmt.Errorf("wire: payload length %d exceeds MaxFrame", n)
	}
	return Header{Type: typ, N: n}, nil
}

// uvarintLen returns the minimal LEB128 encoding length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// fieldUintLen is the encoded size of a tagged uvarint field (0 when
// canonically omitted).
func fieldUintLen(v uint64) int {
	if v == 0 {
		return 0
	}
	return 1 + uvarintLen(v)
}

// fieldBytesLen is the encoded size of a tagged string/bytes field.
func fieldBytesLen(n int) int {
	if n == 0 {
		return 0
	}
	return 1 + uvarintLen(uint64(n)) + n
}

func appendFieldUint(dst []byte, tag byte, v uint64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, tag)
	return binary.AppendUvarint(dst, v)
}

func appendFieldBytes[T ~string | ~[]byte](dst []byte, tag byte, b T) []byte {
	if len(b) == 0 {
		return dst
	}
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// beginFrame appends the 8-byte header with a zero length and returns
// the header's offset; endFrame patches the payload length in.
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	start := len(dst)
	return append(dst, Magic0, Magic1, Version, typ, 0, 0, 0, 0), start
}

func endFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+4:start+8], uint32(len(dst)-start-HeaderLen))
	return dst
}

// uploadedNano is the wire value of a Result's Uploaded stamp: the
// UnixNano reinterpreted as uint64, with the zero time mapped to 0 so
// the (usual) unstamped client-side result omits the field entirely.
func uploadedNano(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	return uint64(t.UnixNano())
}

// AppendLeaseRequest appends a complete MsgLeaseRequest frame to dst
// and returns the extended slice. Negative Max/Ack must be clamped by
// the caller (the amigo handler clamps Max to its lease-batch bound).
func AppendLeaseRequest(dst []byte, req LeaseRequest) []byte {
	dst, start := beginFrame(dst, MsgLeaseRequest)
	return endFrame(appendLeaseFields(dst, &req), start)
}

// appendLeaseFields appends a lease request's field sequence: the
// MsgLeaseRequest payload, and the lease record an upload may end with.
func appendLeaseFields(dst []byte, req *LeaseRequest) []byte {
	dst = appendFieldBytes(dst, tagLeaseME, req.ME)
	dst = appendFieldUint(dst, tagLeaseMax, uint64(req.Max))
	dst = appendFieldUint(dst, tagLeaseAck, uint64(req.Ack))
	if v := &req.Vitals; !v.IsZero() {
		dst = append(dst, tagLeaseVitals)
		dst = binary.AppendUvarint(dst, uint64(vitalsRecordLen(v)))
		dst = appendFieldUint(dst, tagVitalsBattery, math.Float64bits(v.Battery))
		dst = appendFieldUint(dst, tagVitalsRSSI, math.Float64bits(v.RSSI))
		dst = appendFieldUint(dst, tagVitalsSNR, math.Float64bits(v.SNR))
		dst = appendFieldUint(dst, tagVitalsCQI, uint64(v.CQI))
		dst = appendFieldBytes(dst, tagVitalsRAT, v.RAT)
		dst = appendFieldBytes(dst, tagVitalsActiveID, v.ActiveID)
	}
	if req.Redeliver {
		dst = appendFieldUint(dst, tagLeaseRedeliver, 1)
	}
	return dst
}

// leaseFieldsLen is the encoded size of appendLeaseFields' output.
func leaseFieldsLen(req *LeaseRequest) int {
	n := fieldBytesLen(len(req.ME)) + fieldUintLen(uint64(req.Max)) + fieldUintLen(uint64(req.Ack))
	if v := vitalsRecordLen(&req.Vitals); v > 0 {
		n += 1 + uvarintLen(uint64(v)) + v
	}
	if req.Redeliver {
		n += 2 // tag + uvarint(1)
	}
	return n
}

func vitalsRecordLen(v *Vitals) int {
	return fieldUintLen(math.Float64bits(v.Battery)) +
		fieldUintLen(math.Float64bits(v.RSSI)) +
		fieldUintLen(math.Float64bits(v.SNR)) +
		fieldUintLen(uint64(v.CQI)) +
		fieldBytesLen(len(v.RAT)) +
		fieldBytesLen(len(v.ActiveID))
}

func taskRecordLen(t *Task) int {
	return fieldUintLen(uint64(t.ID)) +
		fieldBytesLen(len(t.Kind)) +
		fieldBytesLen(len(t.Target)) +
		fieldBytesLen(len(t.Config))
}

// AppendTasks appends a complete MsgTasks frame (the schedule's reply,
// and a lease reply that is not drained) to dst and returns the extended
// slice.
func AppendTasks(dst []byte, tasks []Task) []byte { return AppendLease(dst, tasks, false) }

// AppendLease appends a complete MsgTasks frame answering a lease: tasks,
// then the drained flag when they are every task the ME has left.
func AppendLease(dst []byte, tasks []Task, drained bool) []byte {
	dst, start := beginFrame(dst, MsgTasks)
	dst = appendTaskRecords(dst, tasks)
	if drained {
		dst = append(dst, 1)
	}
	return endFrame(dst, start)
}

// AppendSchedule appends a complete MsgSchedule frame (me's tasks) to dst.
func AppendSchedule(dst []byte, me string, tasks []Task) []byte {
	dst, start := beginFrame(dst, MsgSchedule)
	dst = binary.AppendUvarint(dst, uint64(len(me)))
	dst = append(dst, me...)
	return endFrame(appendTaskRecords(dst, tasks), start)
}

// appendTaskRecords appends a tasks payload: a count, then the records.
func appendTaskRecords(dst []byte, tasks []Task) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		dst = binary.AppendUvarint(dst, uint64(taskRecordLen(t)))
		dst = appendFieldUint(dst, tagTaskID, uint64(t.ID))
		dst = appendFieldBytes(dst, tagTaskKind, t.Kind)
		dst = appendFieldBytes(dst, tagTaskTarget, t.Target)
		dst = appendFieldBytes(dst, tagTaskConfig, t.Config)
	}
	return dst
}

func resultRecordLen(r *Result) int {
	n := fieldUintLen(uint64(r.TaskID)) +
		fieldBytesLen(len(r.ME)) +
		fieldBytesLen(len(r.Kind)) +
		fieldBytesLen(len(r.Config)) +
		fieldBytesLen(len(r.Error)) +
		fieldBytesLen(len(r.Payload)) +
		fieldUintLen(uploadedNano(r.Uploaded))
	if r.OK {
		n += 2 // tag + uvarint(1)
	}
	return n
}

// ResultsFrameLen sizes the MsgResults frame for the longest prefix of
// rs whose payload stays within MaxFrame: n is how many results that
// prefix holds (len(rs) unless the bound cut it short) and size is the
// exact byte length AppendResults(nil, rs[:n]) produces, header
// included — so a caller can cut a page to one legal frame and grow its
// buffer once.
func ResultsFrameLen(rs []Result) (n, size int) {
	records := 0
	for i := range rs {
		rec := resultRecordLen(&rs[i])
		rec += uvarintLen(uint64(rec))
		if uvarintLen(uint64(i+1))+records+rec > MaxFrame {
			break
		}
		records += rec
		n++
	}
	return n, HeaderLen + uvarintLen(uint64(n)) + records
}

// AppendResults appends a complete MsgResults frame (an upload that
// carries no lease, a page of the v3 results read-back, a WAL record) to
// dst and returns the extended slice.
func AppendResults(dst []byte, rs []Result) []byte { return AppendUpload(dst, rs, LeaseRequest{}) }

// AppendUpload appends a complete MsgResults frame uploading rs, ended by
// next as its lease record when next names an ME: the lease the uploading
// ME would ask for next, which the server answers with the upload. When
// next names no ME the frame is AppendResults'.
func AppendUpload(dst []byte, rs []Result, next LeaseRequest) []byte {
	dst, start := beginFrame(dst, MsgResults)
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		dst = binary.AppendUvarint(dst, uint64(resultRecordLen(r)))
		dst = appendFieldUint(dst, tagResultTaskID, uint64(r.TaskID))
		dst = appendFieldBytes(dst, tagResultME, r.ME)
		dst = appendFieldBytes(dst, tagResultKind, r.Kind)
		dst = appendFieldBytes(dst, tagResultConfig, r.Config)
		if r.OK {
			dst = appendFieldUint(dst, tagResultOK, 1)
		}
		dst = appendFieldBytes(dst, tagResultError, r.Error)
		dst = appendFieldBytes(dst, tagResultPayload, r.Payload)
		dst = appendFieldUint(dst, tagResultUploaded, uploadedNano(r.Uploaded))
	}
	if next.ME != "" {
		dst = binary.AppendUvarint(dst, uint64(leaseFieldsLen(&next)))
		dst = appendLeaseFields(dst, &next)
	}
	return endFrame(dst, start)
}
