// Package wire is the v3 binary wire protocol for the AmiGo control
// plane: a length-prefixed, versioned frame codec for the batch lease
// request/response and result-batch payloads. At fleet scale (10k+ MEs)
// `encoding/json` would dominate the control-plane CPU profile on both
// ends; wire packs fields with `binary.BigEndian` in the style of
// internal/gtp — varint-packed integers and strings, explicit
// single-byte field tags. The codec carries data only: the protocol
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
//	3       1      message type (MsgLeaseRequest / MsgTasks / MsgResults)
//	4       4      payload length, uint32 big-endian (<= MaxFrame)
//	8       N      payload
//
// # Payload grammar
//
// Integers are unsigned LEB128 varints ("uvarint"), strings and byte
// fields are a uvarint length followed by raw bytes. A record is a
// uvarint byte-length followed by its fields; each field is a
// single-byte tag followed by its value. The lease-request payload is
// one bare field sequence (no record prefix); the tasks and results
// payloads are a uvarint record count followed by that many records.
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
	"encoding/json"
	"fmt"
	"time"
)

// Task is one instrumentation command for an ME. It is defined here —
// rather than in internal/amigo, which aliases it — so the JSON (v1)
// and binary (v3) codecs share one canonical struct.
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
	TaskID   int             `json:"task_id"`
	ME       string          `json:"me"`
	Kind     string          `json:"kind"`
	Config   string          `json:"config"`
	OK       bool            `json:"ok"`
	Error    string          `json:"error,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Uploaded time.Time       `json:"uploaded"`
}

// LeaseRequest is the v3 lease body: lease up to Max tasks,
// acknowledging every previously delivered task ID <= Ack.
type LeaseRequest struct {
	ME  string
	Max int
	Ack int
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
	MsgTasks        byte = 0x02 // server -> client: []Task lease response
	MsgResults      byte = 0x03 // []Result: batch upload (client -> server), results page (server -> client)
)

// ContentType is the media type v3 frames travel under; the v3 HTTP
// handlers negotiate on it (anything else is 415) so a misdirected JSON
// client gets a typed refusal instead of a decode error.
const ContentType = "application/vnd.amigo.v3"

// CursorHeader is the response header that carries the next cursor of a
// results page served as v3 frames (GET /admin/results with Accept:
// ContentType); the JSON page carries it in its body.
const CursorHeader = "X-Amigo-Cursor"

// Field tags. Tags are per-message-type namespaces; within a record
// they must appear in strictly ascending order.
const (
	// LeaseRequest fields.
	tagLeaseME  = 0x01 // string
	tagLeaseMax = 0x02 // uvarint
	tagLeaseAck = 0x03 // uvarint

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
	if typ != MsgLeaseRequest && typ != MsgTasks && typ != MsgResults {
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

func appendFieldString(dst []byte, tag byte, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFieldBytes(dst []byte, tag byte, b []byte) []byte {
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
	dst = appendFieldString(dst, tagLeaseME, req.ME)
	dst = appendFieldUint(dst, tagLeaseMax, uint64(req.Max))
	dst = appendFieldUint(dst, tagLeaseAck, uint64(req.Ack))
	return endFrame(dst, start)
}

func taskRecordLen(t *Task) int {
	return fieldUintLen(uint64(t.ID)) +
		fieldBytesLen(len(t.Kind)) +
		fieldBytesLen(len(t.Target)) +
		fieldBytesLen(len(t.Config))
}

// AppendTasks appends a complete MsgTasks frame (the lease response)
// to dst and returns the extended slice.
func AppendTasks(dst []byte, tasks []Task) []byte {
	dst, start := beginFrame(dst, MsgTasks)
	dst = binary.AppendUvarint(dst, uint64(len(tasks)))
	for i := range tasks {
		t := &tasks[i]
		dst = binary.AppendUvarint(dst, uint64(taskRecordLen(t)))
		dst = appendFieldUint(dst, tagTaskID, uint64(t.ID))
		dst = appendFieldString(dst, tagTaskKind, t.Kind)
		dst = appendFieldString(dst, tagTaskTarget, t.Target)
		dst = appendFieldString(dst, tagTaskConfig, t.Config)
	}
	return endFrame(dst, start)
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

// AppendResults appends a complete MsgResults frame (the batch upload,
// and a page of the v3 results read-back) to dst and returns the
// extended slice.
func AppendResults(dst []byte, rs []Result) []byte {
	dst, start := beginFrame(dst, MsgResults)
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		dst = binary.AppendUvarint(dst, uint64(resultRecordLen(r)))
		dst = appendFieldUint(dst, tagResultTaskID, uint64(r.TaskID))
		dst = appendFieldString(dst, tagResultME, r.ME)
		dst = appendFieldString(dst, tagResultKind, r.Kind)
		dst = appendFieldString(dst, tagResultConfig, r.Config)
		if r.OK {
			dst = appendFieldUint(dst, tagResultOK, 1)
		}
		dst = appendFieldString(dst, tagResultError, r.Error)
		dst = appendFieldBytes(dst, tagResultPayload, r.Payload)
		dst = appendFieldUint(dst, tagResultUploaded, uploadedNano(r.Uploaded))
	}
	return endFrame(dst, start)
}
