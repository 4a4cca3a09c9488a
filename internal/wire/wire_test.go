package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
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
}

func TestLeaseRequestRoundTrip(t *testing.T) {
	cases := []LeaseRequest{
		{},
		{ME: "me-USA-000041"},
		{ME: "m", Max: 1},
		{ME: "me-PAK", Max: 1024, Ack: 1 << 40},
		{Max: 127}, {Max: 128}, {Max: 16383}, {Max: 16384},
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
	results := func(payload []byte) error { _, err := d.Results(payload, nil); return err }

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
		{"tasks/count-too-big", tasks, []byte{0x05, 0x00}, errCountTooBig},
		{"tasks/record-overrun", tasks, []byte{0x01, 0x09, 0x01, 0x01}, errRecordLength},
		{"tasks/trailing", tasks, []byte{0x01, 0x00, 0xff}, errTrailing},
		{"tasks/bad-record", tasks, []byte{0x01, 0x02, 0x01, 0x00}, errZeroField},
		{"results/bad-bool", results, []byte{0x01, 0x02, 0x05, 0x02}, errBadBool},
		{"results/zero-uploaded", results, []byte{0x01, 0x02, 0x08, 0x00}, errZeroField},
		{"results/unknown-tag", results, []byte{0x01, 0x02, 0x09, 0x01}, errUnknownTag},
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
	taskFrame := AppendTasks(nil, tasks)
	resultFrame := AppendResults(nil, results)

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
	check("AppendTasks", func() { buf = AppendTasks(buf[:0], tasks) })
	check("AppendResults", func() { buf = AppendResults(buf[:0], results) })
	check("DecodeLeaseRequest", func() {
		if _, err := d.LeaseRequest(leaseFrame[HeaderLen:]); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeTasks", func() {
		if taskDst, err = d.Tasks(taskFrame[HeaderLen:], taskDst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	check("DecodeResults", func() {
		if resDst, err = d.Results(resultFrame[HeaderLen:], resDst[:0]); err != nil {
			t.Fatal(err)
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
