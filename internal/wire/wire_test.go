package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// goldenLease is the hand-computed frame for
// LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7}: header R 3 0x03 0x01
// len=12, then tag 1 + len 6 + "me-PAK", tag 2 + 0x20, tag 3 + 0x07.
var goldenLease = []byte("R3\x03\x01\x00\x00\x00\x0c" + "\x01\x06me-PAK" + "\x02\x20" + "\x03\x07")

func TestGoldenLeaseFrame(t *testing.T) {
	got := AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7})
	if !bytes.Equal(got, goldenLease) {
		t.Fatalf("golden frame mismatch:\n got %x\nwant %x", got, goldenLease)
	}
	h, err := ParseHeader(got)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgLeaseRequest || int(h.N) != len(got)-HeaderLen {
		t.Fatalf("header = %+v", h)
	}
	req, err := NewDecoder().LeaseRequest(got[HeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if req != (LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7}) {
		t.Fatalf("decoded %+v", req)
	}
	// A redelivery appends tag 5 + 0x01, the payload growing to 14 bytes.
	want := "R3\x03\x01\x00\x00\x00\x0e" + string(goldenLease[HeaderLen:]) + "\x05\x01"
	if got := AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7, Redeliver: true}); string(got) != want {
		t.Fatalf("redelivery frame mismatch:\n got %x\nwant %x", got, want)
	}
}

// goldenLeaseVitals is goldenLease carrying vitals {Battery 0.5, RSSI
// -91.25, CQI 9, RAT 5G, ActiveID esim}: header len=47, the same three
// fields, then tag 4 + len 33 + the record — tag 1 + uvarint of 0.5's
// bits 0x3fe0000000000000, tag 2 + uvarint of -91.25's bits
// 0xc056d00000000000, (SNR 0 omitted), tag 4 + 0x09, tag 5 + len 2 + "5G",
// tag 6 + len 4 + "esim".
var goldenLeaseVitals = []byte("R3\x03\x01\x00\x00\x00\x2f" + "\x01\x06me-PAK" + "\x02\x20" + "\x03\x07" +
	"\x04\x21" + "\x01\x80\x80\x80\x80\x80\x80\x80\xf0\x3f" + "\x02\x80\x80\x80\x80\x80\x80\xb4\xab\xc0\x01" +
	"\x04\x09" + "\x05\x025G" + "\x06\x04esim")

var sampleVitals = Vitals{Battery: 0.5, RSSI: -91.25, CQI: 9, RAT: "5G", ActiveID: "esim"}

func TestGoldenLeaseVitalsFrame(t *testing.T) {
	want := LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7, Vitals: sampleVitals}
	got := AppendLeaseRequest(nil, want)
	if !bytes.Equal(got, goldenLeaseVitals) {
		t.Fatalf("golden frame mismatch:\n got %x\nwant %x", got, goldenLeaseVitals)
	}
	h, err := ParseHeader(got)
	if err != nil || h.Type != MsgLeaseRequest || int(h.N) != len(got)-HeaderLen {
		t.Fatalf("header = %+v (%v)", h, err)
	}
	req, err := NewDecoder().LeaseRequest(got[HeaderLen:])
	if err != nil || req != want {
		t.Fatalf("decoded %+v (%v)", req, err)
	}
}

// TestLeaseVitalsRoundTrip: vitals survive the frame bit for bit — a
// negative RSSI, -0 (whose bits are not zero, so it travels), a NaN's
// payload, a negative CQI — and only Vitals with no bit set are omitted.
func TestLeaseVitalsRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8_0000_0000_0abc)
	d := NewDecoder()
	for _, v := range []Vitals{
		sampleVitals,
		{RSSI: -120.5},
		{RSSI: negZero},
		{Battery: math.SmallestNonzeroFloat64, SNR: nan, CQI: -1},
		{Battery: 1, RSSI: -67.125, SNR: 21.75, CQI: 15, RAT: "4G", ActiveID: "sim"},
		{ActiveID: "esim"},
	} {
		frame := AppendLeaseRequest(nil, LeaseRequest{ME: "me", Max: 1, Vitals: v})
		if v.IsZero() || len(frame) == len(AppendLeaseRequest(nil, LeaseRequest{ME: "me", Max: 1})) {
			t.Fatalf("%+v: not carried", v)
		}
		req, err := d.LeaseRequest(frame[HeaderLen:])
		if err != nil {
			t.Fatalf("%+v: %v", v, err)
		}
		got := req.Vitals
		for i, pair := range [][2]float64{{got.Battery, v.Battery}, {got.RSSI, v.RSSI}, {got.SNR, v.SNR}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("%+v: float %d decoded as bits %#x, want %#x", v, i, math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
		if got.CQI != v.CQI || got.RAT != v.RAT || got.ActiveID != v.ActiveID {
			t.Errorf("round trip: got %+v want %+v", got, v)
		}
		if re := AppendLeaseRequest(nil, req); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, frame)
		}
	}
	if !(Vitals{}).IsZero() || (Vitals{RSSI: negZero}).IsZero() {
		t.Error("IsZero must read the bits: zero Vitals are zero, -0 is not")
	}
}

// goldenSchedule is the hand-computed frame for me-PAK's schedule of
// one task {ID 7, dns, sim}: header R 3 0x03 0x04 len=21, then len 6 +
// "me-PAK", count 1, and a 12-byte record: tag 1 + 0x07, tag 2 + len 3 +
// "dns", tag 4 + len 3 + "sim".
var goldenSchedule = []byte("R3\x03\x04\x00\x00\x00\x15" + "\x06me-PAK" + "\x01" + "\x0c" + "\x01\x07" + "\x02\x03dns" + "\x04\x03sim")

func TestGoldenScheduleFrame(t *testing.T) {
	want := []Task{{ID: 7, Kind: "dns", Config: "sim"}}
	got := AppendSchedule(nil, "me-PAK", want)
	if !bytes.Equal(got, goldenSchedule) {
		t.Fatalf("golden frame mismatch:\n got %x\nwant %x", got, goldenSchedule)
	}
	h, err := ParseHeader(got)
	if err != nil || h.Type != MsgSchedule || int(h.N) != len(got)-HeaderLen {
		t.Fatalf("header = %+v (%v)", h, err)
	}
	d := NewDecoder()
	me, tasks, err := d.Schedule(got[HeaderLen:], nil)
	if err != nil || me != "me-PAK" || len(tasks) != 1 || tasks[0] != want[0] {
		t.Fatalf("decoded %q %+v (%v)", me, tasks, err)
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	d := NewDecoder()
	for _, want := range [][]Task{nil, sampleTasks()} {
		frame := AppendSchedule(nil, "me-USA-000041", want)
		me, got, err := d.Schedule(frame[HeaderLen:], nil)
		if err != nil || me != "me-USA-000041" || len(got) != len(want) {
			t.Fatalf("%+v: decoded %q %+v (%v)", want, me, got, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("task %d: got %+v want %+v", i, got[i], want[i])
			}
		}
		if re := AppendSchedule(nil, me, got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, frame)
		}
	}
}

// TestSchedulesBody: a schedule body is one or more MsgSchedule frames,
// decoded whole or not at all. Each frame's tasks follow the previous
// frames' in body order and each ScheduleFrame holds its frame's bytes; a
// body refused anywhere leaves dst and frames as they were.
func TestSchedulesBody(t *testing.T) {
	a := []Task{{Kind: "dns", Config: "sim"}, {ID: 9, Kind: "mtr", Target: "Google", Config: "esim"}}
	b := []Task{{Kind: "speedtest", Config: "esim"}}
	fa, fb := AppendSchedule(nil, "me-PAK", a), AppendSchedule(nil, "me-DEU", b)
	body := append(slices.Clone(fa), fb...)
	d := NewDecoder()
	prior := []Task{{ID: 1, Kind: "video"}}
	tasks, frames, err := d.Schedules(body, prior, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := slices.Concat(prior, a, b); !slices.Equal(tasks, want) {
		t.Fatalf("tasks %+v, want %+v", tasks, want)
	}
	if len(frames) != 2 || frames[0].ME != "me-PAK" || frames[0].Tasks != 2 || !bytes.Equal(frames[0].Frame, fa) ||
		frames[1].ME != "me-DEU" || frames[1].Tasks != 1 || !bytes.Equal(frames[1].Frame, fb) {
		t.Fatalf("frames %+v", frames)
	}

	many := func(me string, n int) []byte {
		ts := make([]Task, n)
		for i := range ts {
			ts[i].Kind = "dns"
		}
		return AppendSchedule(nil, me, ts)
	}
	for _, c := range []struct {
		name string
		body []byte
		want error // nil: any error
	}{
		{"empty body", nil, nil},
		{"kindless second frame", append(slices.Clone(fa), AppendSchedule(nil, "me-DEU", []Task{{Config: "sim"}})...), errKindless},
		{"empty second frame", append(slices.Clone(fa), AppendSchedule(nil, "me-DEU", nil)...), errKindless},
		{"no ME", AppendSchedule(nil, "", a), nil},
		{"trailing byte", append(slices.Clone(body), 0), nil},
		{"torn last frame", body[:len(body)-1], errTruncated},
		{"lease frame after a schedule", append(slices.Clone(fa), AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK", Max: 1})...), nil},
		{"over MaxScheduleCount in all", append(many("me-PAK", MaxScheduleCount/2+1), many("me-DEU", MaxScheduleCount/2)...), errCountBound},
		{"over MaxFrame bytes", make([]byte, MaxFrame+1), ErrBodyTooLarge},
	} {
		tasks, frames, err := d.Schedules(c.body, prior, make([]ScheduleFrame, 0, 4))
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("%s: err %v, want %v", c.name, err, c.want)
		}
		if !slices.Equal(tasks, prior) || len(frames) != 0 {
			t.Errorf("%s: refused body left %d tasks and %d frames", c.name, len(tasks), len(frames))
		}
	}
}

// TestReadBody: a body is read whole up to MaxFrame bytes; past that it is
// ErrBodyTooLarge, from its declared length alone when it has one.
func TestReadBody(t *testing.T) {
	body := AppendSchedule(nil, "me-PAK", sampleTasks())
	for _, length := range []int64{-1, int64(len(body))} {
		got, err := ReadBody(bytes.NewReader(body), length, nil)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("length %d: read %d bytes (%v), want the %d sent", length, len(got), err, len(body))
		}
	}
	if _, err := ReadBody(iotest.ErrReader(io.ErrUnexpectedEOF), -1, nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a failing reader: %v", err)
	}
	if _, err := ReadBody(iotest.ErrReader(io.ErrUnexpectedEOF), MaxFrame+1, nil); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("declared over MaxFrame: %v, want ErrBodyTooLarge before any read", err)
	}
	big := io.LimitReader(zeros{}, MaxFrame+64)
	if got, err := ReadBody(big, -1, nil); !errors.Is(err, ErrBodyTooLarge) || len(got) > 2*MaxFrame {
		t.Fatalf("undeclared over MaxFrame: %v after %d bytes", err, len(got))
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

func TestLeaseRequestRoundTrip(t *testing.T) {
	cases := []LeaseRequest{
		{},
		{ME: "me-USA-000041"},
		{ME: "m", Max: 1},
		{ME: "me-PAK", Max: 1024, Ack: 1 << 40},
		{Max: 127}, {Max: 128}, {Max: 16383}, {Max: 16384},
		{ME: "me-PAK", Max: 32, Redeliver: true},
		{ME: "me-PAK", Max: 32, Ack: 7, Vitals: sampleVitals, Redeliver: true},
		{Redeliver: true},
	}
	d := NewDecoder()
	for _, want := range cases {
		frame := AppendLeaseRequest(nil, want)
		h, err := ParseHeader(frame)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		got, err := d.LeaseRequest(frame[HeaderLen : HeaderLen+int(h.N)])
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
		// Canonical form: re-encoding the decoded value reproduces the
		// frame byte for byte.
		if re := AppendLeaseRequest(nil, got); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, frame)
		}
	}
}

func sampleTasks() []Task {
	return []Task{
		{ID: 1, Kind: "speedtest", Config: "esim"},
		{ID: 2, Kind: "mtr", Target: "sp-singapore", Config: "sim"},
		{ID: 300, Kind: "cdn", Target: "cloudfront", Config: "esim"},
		{}, // zero task: empty record
	}
}

func sampleResults() []Result {
	return []Result{
		{TaskID: 1, ME: "me-PAK-000001", Kind: "speedtest", Config: "esim",
			OK: true, Payload: json.RawMessage(`{"down_mbps":9.4}`)},
		{TaskID: 2, ME: "me-PAK-000001", Kind: "mtr", Config: "sim",
			Error: "probe timeout"},
		{TaskID: 7, ME: "me-USA-000041", Kind: "dns", Config: "esim", OK: true,
			Payload:  json.RawMessage(`{"rtt_ms":31}`),
			Uploaded: time.Unix(0, 1700000000123456789).UTC()},
	}
}

func TestTasksRoundTrip(t *testing.T) {
	want := sampleTasks()
	frame := AppendTasks(nil, want)
	h, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgTasks {
		t.Fatalf("type = %#x", h.Type)
	}
	got, err := NewDecoder().Tasks(frame[HeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("task %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if re := AppendTasks(nil, got); !bytes.Equal(re, frame) {
		t.Fatalf("re-encode mismatch")
	}

	// Decoding appends: recycled dst keeps its prefix.
	prefix := []Task{{ID: 99, Kind: "keep", Config: "sim"}}
	both, err := NewDecoder().Tasks(frame[HeaderLen:], prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != 1+len(want) || both[0].ID != 99 || both[1] != want[0] {
		t.Fatalf("append-decode broke the prefix: %+v", both)
	}
}

// TestLeaseDrainedFlag: a lease reply is the tasks frame, plus one byte
// when it is drained. Tasks reads the flagless reply and refuses the
// flagged one; Lease reads both and appends onto dst as Tasks does.
func TestLeaseDrainedFlag(t *testing.T) {
	want := sampleTasks()
	plain := AppendTasks(nil, want)
	if lease := AppendLease(nil, want, false); !bytes.Equal(lease, plain) {
		t.Fatalf("a lease that is not drained is not the tasks frame:\n %x\n %x", lease, plain)
	}
	flagged := AppendLease(nil, want, true)
	if len(flagged) != len(plain)+1 || flagged[len(flagged)-1] != 1 {
		t.Fatalf("drained lease %x, want the tasks frame %x and 0x01", flagged, plain)
	}
	d := NewDecoder()
	for _, tc := range []struct {
		frame   []byte
		drained bool
	}{{plain, false}, {flagged, true}} {
		prefix := []Task{{ID: 99, Kind: "keep", Config: "sim"}}
		got, drained, err := d.Lease(tc.frame[HeaderLen:], prefix)
		if err != nil || drained != tc.drained || !slices.Equal(got[1:], want) || got[0] != prefix[0] {
			t.Fatalf("Lease(%x) = %+v, %v, %v; want the prefix, %+v, %v", tc.frame, got, drained, err, want, tc.drained)
		}
	}
	if _, err := d.Tasks(flagged[HeaderLen:], nil); !errors.Is(err, errTrailing) {
		t.Fatalf("Tasks of a drained lease: err = %v, want %v", err, errTrailing)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	want := sampleResults()
	frame := AppendResults(nil, want)
	h, err := ParseHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgResults {
		t.Fatalf("type = %#x", h.Type)
	}
	got, err := NewDecoder().Results(frame[HeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TaskID != w.TaskID || g.ME != w.ME || g.Kind != w.Kind ||
			g.Config != w.Config || g.OK != w.OK || g.Error != w.Error ||
			!bytes.Equal(g.Payload, w.Payload) || !g.Uploaded.Equal(w.Uploaded) {
			t.Fatalf("result %d: got %+v want %+v", i, g, w)
		}
	}
	if re := AppendResults(nil, got); !bytes.Equal(re, frame) {
		t.Fatalf("re-encode mismatch")
	}
}

// TestUploadLeaseRecord: an upload is the results frame, plus the lease
// record when its lease names an ME — the lease request's own field
// sequence behind its byte length. Upload reads both forms, appending onto
// dst as Results does; Results, which results pages and WAL records are
// read with, refuses the record as trailing bytes.
func TestUploadLeaseRecord(t *testing.T) {
	want := sampleResults()
	plain := AppendResults(nil, want)
	if got := AppendUpload(nil, want, LeaseRequest{Max: 32, Ack: 7}); !bytes.Equal(got, plain) {
		t.Fatalf("an upload whose lease names no ME is not the results frame:\n %x\n %x", got, plain)
	}
	next := LeaseRequest{ME: "me-PAK", Max: 32, Ack: 7, Vitals: sampleVitals}
	upload := AppendUpload(nil, want, next)
	fields := AppendLeaseRequest(nil, next)[HeaderLen:]
	if tail := upload[len(plain):]; tail[0] != byte(len(fields)) || !bytes.Equal(tail[1:], fields) {
		t.Fatalf("lease record %x, want the length %d and the lease fields %x", tail, len(fields), fields)
	}
	if h, err := ParseHeader(upload); err != nil || h.Type != MsgResults || int(h.N) != len(upload)-HeaderLen {
		t.Fatalf("header %+v, %v", h, err)
	}
	d := NewDecoder()
	prefix := []Result{{TaskID: 99, ME: "keep"}}
	for _, tc := range []struct {
		frame []byte
		next  LeaseRequest
	}{{plain, LeaseRequest{}}, {upload, next}} {
		got, lease, err := d.Upload(tc.frame[HeaderLen:], prefix)
		if err != nil || lease != tc.next || len(got) != len(want)+1 || got[0].TaskID != 99 {
			t.Fatalf("Upload(%x) = %d results, %+v, %v; want the prefix and %d, %+v", tc.frame, len(got), lease, err, len(want), tc.next)
		}
		if re := AppendUpload(nil, got[1:], lease); !bytes.Equal(re, tc.frame) {
			t.Fatalf("re-encode mismatch:\n %x\n %x", re, tc.frame)
		}
	}
	if got, err := d.Results(upload[HeaderLen:], prefix); !errors.Is(err, errTrailing) || len(got) != 1 {
		t.Fatalf("Results of an upload carrying a lease = %d results, %v; want the prefix alone, %v", len(got), err, errTrailing)
	}
	if me, err := d.FirstResultME(upload[HeaderLen:]); err != nil || me != want[0].ME {
		t.Fatalf("FirstResultME = %q, %v; want the first result's %q", me, err, want[0].ME)
	}
}

// TestResultPayloadAliasing pins the documented ownership contract:
// decoded payloads alias the input buffer, so mutating the buffer
// mutates the decoded result.
func TestResultPayloadAliasing(t *testing.T) {
	frame := AppendResults(nil, []Result{{TaskID: 1, ME: "m", OK: true,
		Payload: json.RawMessage(`{"x":1}`)}})
	got, err := NewDecoder().Results(frame[HeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(frame, []byte(`{"x":1}`))
	frame[idx+5] = '9'
	if string(got[0].Payload) != `{"x":9}` {
		t.Fatalf("payload does not alias the frame buffer: %s", got[0].Payload)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	ok := AppendLeaseRequest(nil, LeaseRequest{ME: "m"})
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string
	}{
		{"short", func(b []byte) []byte { return b[:HeaderLen-1] }, "short header"},
		{"magic0", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"magic1", func(b []byte) []byte { b[1] = 'X'; return b }, "bad magic"},
		{"version", func(b []byte) []byte { b[2] = 0x02; return b }, "unsupported version"},
		{"type", func(b []byte) []byte { b[3] = 0x7f; return b }, "unknown message type"},
		{"toobig", func(b []byte) []byte { b[4] = 0xff; return b }, "exceeds MaxFrame"},
	}
	for _, tc := range cases {
		b := tc.mutate(append([]byte(nil), ok...))
		if _, err := ParseHeader(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestStrictDecodeRejects(t *testing.T) {
	d := NewDecoder()
	lease := func(payload []byte) error { _, err := d.LeaseRequest(payload); return err }
	tasks := func(payload []byte) error { _, err := d.Tasks(payload, nil); return err }
	leased := func(payload []byte) error {
		got, drained, err := d.Lease(payload, nil)
		if err == nil || len(got) > 0 || drained {
			return fmt.Errorf("Lease = %d tasks, drained %v, %v", len(got), drained, err)
		}
		return err
	}
	results := func(payload []byte) error { _, err := d.Results(payload, nil); return err }
	upload := func(payload []byte) error {
		got, next, err := d.Upload(payload, nil)
		if err == nil || len(got) > 0 || next != (LeaseRequest{}) {
			return fmt.Errorf("Upload = %d results, lease %+v, %v", len(got), next, err)
		}
		return err
	}
	schedule := func(payload []byte) error { _, _, err := d.Schedule(payload, nil); return err }
	overBound := append(binary.AppendUvarint(nil, MaxScheduleCount+1), make([]byte, MaxScheduleCount+1)...)

	cases := []struct {
		name    string
		dec     func([]byte) error
		payload []byte
		want    error
	}{
		{"lease/unknown-tag", lease, []byte{0x09, 0x01}, errUnknownTag},
		{"lease/tag-order", lease, []byte{0x02, 0x01, 0x01, 0x01, 'x'}, errTagOrder},
		{"lease/repeated-tag", lease, []byte{0x02, 0x01, 0x02, 0x01}, errTagOrder},
		{"lease/zero-max", lease, []byte{0x02, 0x00}, errZeroField},
		{"lease/empty-me", lease, []byte{0x01, 0x00}, errZeroField},
		{"lease/truncated-string", lease, []byte{0x01, 0x05, 'a', 'b'}, errTruncated},
		{"lease/truncated-varint", lease, []byte{0x02, 0x80}, errTruncated},
		{"lease/non-minimal", lease, []byte{0x02, 0x81, 0x00}, errNonMinimal},
		{"lease/overflow", lease, []byte{0x02, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, errIntOverflow},
		{"vitals/tag-order", lease, []byte{0x01, 0x01, 'm', 0x04, 0x04, 0x04, 0x01, 0x01, 0x01}, errTagOrder},
		{"vitals/repeated-tag", lease, []byte{0x04, 0x04, 0x04, 0x01, 0x04, 0x02}, errTagOrder},
		{"vitals/unknown-tag", lease, []byte{0x04, 0x02, 0x07, 0x01}, errUnknownTag},
		{"vitals/zero-float", lease, []byte{0x04, 0x02, 0x02, 0x00}, errZeroField},
		{"vitals/zero-cqi", lease, []byte{0x04, 0x02, 0x04, 0x00}, errZeroField},
		{"vitals/empty-rat", lease, []byte{0x04, 0x02, 0x05, 0x00}, errZeroField},
		{"vitals/empty-record", lease, []byte{0x01, 0x01, 'm', 0x04, 0x00}, errZeroField},
		{"vitals/truncated-record", lease, []byte{0x04, 0x05, 0x04, 0x01}, errRecordLength},
		{"vitals/truncated-field", lease, []byte{0x04, 0x03, 0x06, 0x04, 'e'}, errTruncated},
		{"vitals/truncated-float", lease, []byte{0x04, 0x02, 0x01, 0x80}, errTruncated},
		{"vitals/after-record", lease, []byte{0x04, 0x02, 0x04, 0x01, 0x03, 0x01}, errTagOrder},
		{"redeliver/zero", lease, []byte{0x05, 0x00}, errBadBool},
		{"redeliver/two", lease, []byte{0x05, 0x02}, errBadBool},
		{"redeliver/repeated-tag", lease, []byte{0x05, 0x01, 0x05, 0x01}, errTagOrder},
		{"redeliver/before-vitals", lease, []byte{0x05, 0x01, 0x04, 0x02, 0x04, 0x01}, errTagOrder},
		{"redeliver/before-max", lease, []byte{0x01, 0x01, 'm', 0x05, 0x01, 0x02, 0x20}, errTagOrder},
		{"tasks/count-too-big", tasks, []byte{0x05, 0x00}, errCountTooBig},
		{"tasks/record-overrun", tasks, []byte{0x01, 0x09, 0x01, 0x01}, errRecordLength},
		{"tasks/trailing", tasks, []byte{0x01, 0x00, 0xff}, errTrailing},
		{"tasks/bad-record", tasks, []byte{0x01, 0x02, 0x01, 0x00}, errZeroField},
		{"tasks/count-over-bound", tasks, overBound, errCountBound},
		{"lease-reply/flag-zero", leased, []byte{0x00, 0x00}, errBadBool},
		{"lease-reply/flag-two", leased, []byte{0x00, 0x02}, errBadBool},
		{"lease-reply/flag-non-minimal", leased, []byte{0x00, 0x81, 0x00}, errNonMinimal},
		{"lease-reply/two-trailing", leased, []byte{0x00, 0x01, 0x00}, errTrailing},
		{"lease-reply/after-record", leased, []byte{0x01, 0x02, 0x01, 0x07, 0x01, 0x01}, errTrailing},
		{"lease-reply/bad-record", leased, []byte{0x01, 0x02, 0x01, 0x00, 0x01}, errZeroField},
		{"results/bad-bool", results, []byte{0x01, 0x02, 0x05, 0x02}, errBadBool},
		{"results/zero-uploaded", results, []byte{0x01, 0x02, 0x08, 0x00}, errZeroField},
		{"results/unknown-tag", results, []byte{0x01, 0x02, 0x09, 0x01}, errUnknownTag},
		{"results/lease-record", results, []byte{0x00, 0x03, 0x01, 0x01, 'm'}, errTrailing},
		{"upload/empty-record", upload, []byte{0x00, 0x00}, errLeaseNoME},
		{"upload/no-me", upload, []byte{0x00, 0x02, 0x02, 0x20}, errLeaseNoME},
		{"upload/record-overrun", upload, []byte{0x00, 0x05, 0x01, 0x01, 'm'}, errRecordLength},
		{"upload/after-record", upload, []byte{0x00, 0x03, 0x01, 0x01, 'm', 0x00}, errTrailing},
		{"upload/tag-order", upload, []byte{0x00, 0x05, 0x02, 0x20, 0x01, 0x01, 'm'}, errTagOrder},
		{"upload/zero-max", upload, []byte{0x00, 0x05, 0x01, 0x01, 'm', 0x02, 0x00}, errZeroField},
		{"upload/unknown-tag", upload, []byte{0x00, 0x05, 0x01, 0x01, 'm', 0x09, 0x01}, errUnknownTag},
		{"upload/bad-result", upload, []byte{0x01, 0x02, 0x05, 0x02, 0x03, 0x01, 0x01, 'm'}, errBadBool},
		{"schedule/empty-me", schedule, []byte{0x00, 0x00}, errZeroField},
		{"schedule/count-too-big", schedule, []byte{0x01, 'm', 0x05, 0x00}, errCountTooBig},
		{"schedule/count-over-bound", schedule, append([]byte{0x01, 'm'}, overBound...), errCountBound},
		{"schedule/trailing", schedule, []byte{0x01, 'm', 0x00, 0xff}, errTrailing},
	}
	for _, tc := range cases {
		err := tc.dec(tc.payload)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestReadFrame(t *testing.T) {
	frame := AppendTasks(nil, sampleTasks())
	h, payload, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgTasks || !bytes.Equal(payload, frame[HeaderLen:]) {
		t.Fatalf("ReadFrame: h=%+v payload=%x", h, payload)
	}

	// Truncation mid-header and mid-payload must both fail loudly —
	// this is what turns a chaos-truncated response into a retry.
	for cut := 1; cut < len(frame); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(frame[:cut]), nil); err == nil {
			t.Fatalf("ReadFrame accepted a frame truncated at %d/%d bytes", cut, len(frame))
		}
	}

	// A pooled buffer with capacity is reused, not reallocated.
	buf := make([]byte, 0, bufCap)
	_, payload, err = ReadFrame(bytes.NewReader(frame), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &payload[0] != &buf[:1][0] {
		t.Fatal("ReadFrame reallocated despite sufficient capacity")
	}
}

// TestCodecZeroAlloc enforces the allocation discipline in plain `go
// test`, independent of -benchmem: steady-state encode and decode of
// every message type performs zero allocations.
func TestCodecZeroAlloc(t *testing.T) {
	tasks := sampleTasks()
	results := sampleResults()
	leaseFrame := AppendLeaseRequest(nil, LeaseRequest{ME: "me-PAK-000001", Max: 32, Ack: 7})
	vitalsLease := LeaseRequest{ME: "me-PAK-000001", Max: 32, Ack: 7, Vitals: sampleVitals}
	vitalsFrame := AppendLeaseRequest(nil, vitalsLease)
	taskFrame := AppendTasks(nil, tasks)
	drainedFrame := AppendLease(nil, tasks, true)
	resultFrame := AppendResults(nil, results)
	uploadFrame := AppendUpload(nil, results, vitalsLease)
	scheduleFrame := AppendSchedule(nil, "me-PAK-000001", tasks)

	d := NewDecoder()
	// Warm the intern table and scratch capacity once.
	var taskDst []Task
	var resDst []Result
	var err error
	if taskDst, err = d.Tasks(taskFrame[HeaderLen:], taskDst[:0]); err != nil {
		t.Fatal(err)
	}
	if resDst, err = d.Results(resultFrame[HeaderLen:], resDst[:0]); err != nil {
		t.Fatal(err)
	}
	if _, err = d.LeaseRequest(vitalsFrame[HeaderLen:]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, bufCap)

	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	check("AppendLeaseRequest", func() {
		buf = AppendLeaseRequest(buf[:0], LeaseRequest{ME: "me-PAK-000001", Max: 32, Ack: 7})
	})
	check("AppendLeaseRequestVitals", func() { buf = AppendLeaseRequest(buf[:0], vitalsLease) })
	check("AppendTasks", func() { buf = AppendTasks(buf[:0], tasks) })
	check("AppendLease", func() { buf = AppendLease(buf[:0], tasks, true) })
	check("AppendResults", func() { buf = AppendResults(buf[:0], results) })
	check("AppendUpload", func() { buf = AppendUpload(buf[:0], results, vitalsLease) })
	check("AppendSchedule", func() { buf = AppendSchedule(buf[:0], "me-PAK-000001", tasks) })
	check("DecodeLeaseRequest", func() {
		if _, err := d.LeaseRequest(leaseFrame[HeaderLen:]); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeLeaseRequestVitals", func() {
		if req, err := d.LeaseRequest(vitalsFrame[HeaderLen:]); err != nil || req != vitalsLease {
			t.Fatal(req, err)
		}
	})
	check("DecodeTasks", func() {
		if taskDst, err = d.Tasks(taskFrame[HeaderLen:], taskDst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeLease", func() {
		var drained bool
		if taskDst, drained, err = d.Lease(drainedFrame[HeaderLen:], taskDst[:0]); err != nil || !drained {
			t.Fatal(drained, err)
		}
	})
	check("DecodeSchedule", func() {
		if _, taskDst, err = d.Schedule(scheduleFrame[HeaderLen:], taskDst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeResults", func() {
		if resDst, err = d.Results(resultFrame[HeaderLen:], resDst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeUpload", func() {
		var next LeaseRequest
		if resDst, next, err = d.Upload(uploadFrame[HeaderLen:], resDst[:0]); err != nil || next != vitalsLease {
			t.Fatal(next, err)
		}
	})
	kinded := tasks[:3]
	scheduleBody := AppendSchedule(AppendSchedule(nil, "me-PAK-000001", kinded), "me-DEU-000002", kinded)
	frames := make([]ScheduleFrame, 0, 2)
	check("DecodeSchedules", func() {
		if taskDst, frames, err = d.Schedules(scheduleBody, taskDst[:0], frames[:0]); err != nil || len(frames) != 2 {
			t.Fatal(len(frames), err)
		}
	})
	rd := bytes.NewReader(nil)
	check("ReadFrame", func() {
		rd.Reset(taskFrame)
		if _, buf, err = ReadFrame(rd, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInternCap keeps the interning table bounded under a hostile
// stream of unique strings.
func TestInternCap(t *testing.T) {
	d := NewDecoder()
	var frame []byte
	task := []Task{{ID: 1, Config: "sim"}}
	for i := 0; i < maxIntern+100; i++ {
		task[0].Kind = "kind-" + string(rune('a'+i%26)) + time.Duration(i).String()
		frame = AppendTasks(frame[:0], task)
		if _, err := d.Tasks(frame[HeaderLen:], nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.intern) > maxIntern {
		t.Fatalf("intern table grew to %d, cap is %d", len(d.intern), maxIntern)
	}
}

// TestResultsFrameLen: the size it reports is the size AppendResults
// writes, the count it reports is what ResultCount reads back, and a
// page that cannot fit one frame is cut to the longest prefix that can.
func TestResultsFrameLen(t *testing.T) {
	many := make([]Result, 300) // a two-byte record count
	for i := range many {
		many[i] = sampleResults()[i%3]
		many[i].TaskID = i + 1
	}
	for name, rs := range map[string][]Result{
		"nil": nil, "one": sampleResults()[:1], "three": sampleResults(), "three hundred": many,
	} {
		n, size := ResultsFrameLen(rs)
		frame := AppendResults(nil, rs)
		if n != len(rs) || size != len(frame) {
			t.Errorf("%s: ResultsFrameLen = (%d, %d), AppendResults wrote %d results in %d bytes", name, n, size, len(rs), len(frame))
		}
		if got, err := ResultCount(frame[HeaderLen:]); err != nil || got != len(rs) {
			t.Errorf("%s: ResultCount = %d, %v; want %d", name, got, err, len(rs))
		}
	}

	big := make([]Result, 5)
	for i := range big {
		big[i] = Result{TaskID: i + 1, ME: "me", Payload: make([]byte, MaxFrame/4)}
	}
	n, size := ResultsFrameLen(big)
	if n != 3 {
		t.Fatalf("five quarter-frame results: %d fit one frame, want 3", n)
	}
	frame := AppendResults(nil, big[:n])
	if size != len(frame) {
		t.Errorf("cut page: size %d, AppendResults wrote %d", size, len(frame))
	}
	if h, err := ParseHeader(frame); err != nil || h.N > MaxFrame {
		t.Errorf("cut page does not parse as a legal frame: %+v, %v", h, err)
	}
	if _, err := ParseHeader(AppendResults(nil, big[:n+1])); err == nil {
		t.Error("one more result would still have fit: the cut is not maximal")
	}
	if n, _ := ResultsFrameLen([]Result{{TaskID: 1, Payload: make([]byte, MaxFrame)}}); n != 0 {
		t.Errorf("a result larger than a frame: %d fit, want 0", n)
	}
	if _, err := ResultCount(nil); err == nil {
		t.Error("ResultCount accepted an empty payload")
	}
}

// TestReadResults: a results page is zero or more frames up to a clean
// end of stream; payloads alias per-frame buffers that outlive the read;
// a torn frame or a frame of another type is an error, not an end.
func TestReadResults(t *testing.T) {
	rs := sampleResults()
	page := AppendResults(AppendResults(nil, rs[:2]), rs[2:])
	dec := NewDecoder()
	got, err := dec.ReadResults(bytes.NewReader(page), nil)
	if err != nil || !reflect.DeepEqual(got, rs) {
		t.Fatalf("two-frame page: %+v, %v; want %+v", got, err, rs)
	}
	for i := range page {
		page[i] = 0xff // the source is gone; the results must not notice
	}
	if !reflect.DeepEqual(got, rs) {
		t.Error("decoded results alias the stream's buffer, not their own")
	}
	if got, err := dec.ReadResults(bytes.NewReader(nil), got[:1]); err != nil || len(got) != 1 {
		t.Errorf("empty page onto one result: %d results, %v", len(got), err)
	}
	whole := AppendResults(nil, rs)
	for _, cut := range []int{3, HeaderLen, len(whole) - 1} {
		if _, err := dec.ReadResults(bytes.NewReader(whole[:cut]), nil); err == nil {
			t.Errorf("page torn at byte %d of %d read as complete", cut, len(whole))
		}
	}
	if _, err := dec.ReadResults(bytes.NewReader(AppendTasks(nil, sampleTasks())), nil); err == nil {
		t.Error("a tasks frame read as a results page")
	}
}
