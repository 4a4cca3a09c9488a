package walsink

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// mkResults builds a deterministic batch of n results tagged with the
// given batch number so tests can tell records apart.
func mkResults(batch, n int) []wire.Result {
	out := make([]wire.Result, n)
	for i := range out {
		out[i] = wire.Result{
			TaskID:   batch*1000 + i + 1,
			ME:       fmt.Sprintf("PAK-%02d", batch%4),
			Kind:     "speedtest",
			Config:   "esim",
			OK:       true,
			Payload:  []byte(fmt.Sprintf(`{"batch":%d,"i":%d}`, batch, i)),
			Uploaded: time.Unix(0, int64(batch*100+i+1)).UTC(),
		}
	}
	return out
}

func collect(t *testing.T, s *Sink, cursor int) []wire.Result {
	t.Helper()
	var out []wire.Result
	next, err := s.Replay(cursor, func(r wire.Result) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay(%d): %v", cursor, err)
	}
	if want := cursor + len(out); next != want {
		t.Fatalf("Replay cursor = %d, want %d", next, want)
	}
	return out
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.Result
	for b := 0; b < 7; b++ {
		batch := mkResults(b, 3)
		s.Append(batch)
		want = append(want, batch...)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	if got := collect(t, s, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay before close diverged:\n got %+v\nwant %+v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must still be there, and appends must resume.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != len(want) {
		t.Fatalf("Len after reopen = %d, want %d", got, len(want))
	}
	more := mkResults(99, 2)
	s2.Append(more)
	want = append(want, more...)
	if got := collect(t, s2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen diverged")
	}
	// Mid-log cursor replay.
	if got := collect(t, s2, 5); !reflect.DeepEqual(got, want[5:]) {
		t.Fatalf("replay from cursor 5 diverged")
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256, SyncBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.Result
	for b := 0; b < 20; b++ {
		batch := mkResults(b, 2)
		s.Append(batch)
		want = append(want, batch...)
	}
	n, bytes := s.Segments()
	if n < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d (%d bytes)", n, bytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != n {
		t.Fatalf("on-disk segments = %d, metadata says %d", len(names), n)
	}
	s2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := collect(t, s2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay across rotated segments diverged")
	}
}

// TestTornTailTruncated simulates a crash mid-write: the final segment
// ends with half a record, which Open must truncate away, keeping every
// fully-written record.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := mkResults(0, 5)
	s.Append(want)
	s.Append(mkResults(1, 3)) // this record will be torn
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-way through the second record.
	_, _, first, err := verifyRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:first+3], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.Len(); got != len(want) {
		t.Fatalf("Len after torn-tail recovery = %d, want %d", got, len(want))
	}
	if got := collect(t, s2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after torn-tail recovery diverged")
	}
	// The truncated file must now end exactly on the record boundary.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(first) {
		t.Fatalf("file size after recovery = %d, want %d", fi.Size(), first)
	}
}

// TestCRCFlipStopsAtCorruption flips one payload byte: the final
// segment's valid prefix ends before the damaged record, and replay
// yields only the records ahead of it.
func TestCRCFlipStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keep := mkResults(0, 4)
	s.Append(keep)
	s.Append(mkResults(1, 4)) // to be corrupted
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, first, err := verifyRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	data[first+wire.HeaderLen+2] ^= 0xff // flip a byte inside record 2's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with flipped CRC byte: %v", err)
	}
	defer s2.Close()
	if got := collect(t, s2, 0); !reflect.DeepEqual(got, keep) {
		t.Fatalf("replay past corruption: got %d results, want %d", len(got), len(keep))
	}
}

// TestMidLogCorruptionRefused damages a non-final segment: that is lost
// durable data, and Open must fail loudly instead of replaying a gap.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 10; b++ {
		s.Append(mkResults(b, 2))
	}
	n, _ := s.Segments()
	if n < 2 {
		t.Fatalf("need >=2 segments for this test, got %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0]) // first segment: mid-log
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[wire.HeaderLen+1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted mid-log corruption")
	}
}

func TestSincePaging(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []wire.Result
	for b := 0; b < 12; b++ {
		batch := mkResults(b, 4)
		s.Append(batch)
		want = append(want, batch...)
	}
	// Page through Since the way Server.Results does.
	var got []wire.Result
	cursor := 0
	for {
		rs, next := s.Since(cursor, 0)
		if len(rs) == 0 || next <= cursor {
			break
		}
		got = append(got, rs...)
		cursor = next
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Since paging diverged: got %d results, want %d", len(got), len(want))
	}
	if _, next := s.Since(len(want)+100, 0); next != len(want) {
		t.Fatalf("Since past end: next = %d, want %d", next, len(want))
	}
}

// TestSincePageBoundary crosses the sincePage limit: a WAL holding more
// than one full page must hand out pages that concatenate to exactly
// the log, with no duplicated boundary record and no dropped tail.
func TestSincePageBoundary(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const perBatch = 500
	var want []wire.Result
	for b := 0; len(want) < sincePage; b++ {
		batch := mkResults(b, perBatch)
		s.Append(batch)
		want = append(want, batch...)
	}
	tail := mkResults(900, 3) // strictly past the page boundary
	s.Append(tail)
	want = append(want, tail...)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	// The first page must be exactly full and its cursor must count
	// every yielded result — cursor+sincePage, not one short.
	first, next := s.Since(0, 0)
	if len(first) != sincePage {
		t.Fatalf("first page = %d results, want %d", len(first), sincePage)
	}
	if next != sincePage {
		t.Fatalf("first page next = %d, want %d", next, sincePage)
	}

	var got []wire.Result
	cursor := 0
	for {
		rs, n := s.Since(cursor, 0)
		if len(rs) == 0 {
			if n != cursor {
				t.Fatalf("empty page moved cursor: %d -> %d", cursor, n)
			}
			break
		}
		if n != cursor+len(rs) {
			t.Fatalf("page at %d: next = %d, want %d", cursor, n, cursor+len(rs))
		}
		got = append(got, rs...)
		cursor = n
	}
	if len(got) != len(want) {
		t.Fatalf("paged read yielded %d results, want %d", len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		if seen[r.TaskID] {
			t.Fatalf("duplicate result at position %d: TaskID %d", i, r.TaskID)
		}
		seen[r.TaskID] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paged read diverged from log order")
	}
}

// TestServerIntegration drops the WAL behind a live amigo.Server and
// checks the cursor-paged admin read path and the 501-free contract.
func TestServerIntegration(t *testing.T) {
	dir := t.TempDir()
	wal, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	srv := amigo.NewServer(nil, amigo.WithSink(wal))
	if !srv.SupportsCursor() {
		t.Fatal("server did not detect walsink cursor support")
	}
	srv.Register("PAK-00", "PAK")
	ids, err := srv.ScheduleBatch("PAK-00", []amigo.Task{{Kind: "speedtest", Config: "esim"}, {Kind: "dns", Target: "8.8.8.8", Config: "sim"}})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := srv.LeaseAckInto("PAK-00", 10, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != len(ids) {
		t.Fatalf("leased %d tasks, want %d", len(tasks), len(ids))
	}
	var up []amigo.Result
	for _, task := range tasks {
		up = append(up, amigo.Result{TaskID: task.ID, ME: "PAK-00", Kind: task.Kind, Config: task.Config, OK: true, Payload: []byte(`{"ok":true}`)})
	}
	if err := srv.Submit(up); err != nil {
		t.Fatal(err)
	}
	// Submit drains the spool into the WAL synchronously; the paged
	// admin read path now serves straight off disk.
	got := srv.Results()
	if len(got) != len(up) {
		t.Fatalf("Results() through walsink = %d results, want %d", len(got), len(up))
	}
	if wal.Len() != len(up) {
		t.Fatalf("wal.Len = %d, want %d", wal.Len(), len(up))
	}
}

func TestObsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 256, SyncBytes: 1, Obs: reg, Labels: []obs.Label{obs.L("shard", "0")}})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 8; b++ {
		s.Append(mkResults(b, 2))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"walsink_records_total", "walsink_fsyncs_total", "walsink_segments", "walsink_bytes", `shard="0"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestRecordFormat pins the on-disk layout: wire frame || big-endian
// CRC32(IEEE) of the frame. If this breaks, old WALs stop replaying.
func TestRecordFormat(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := mkResults(0, 1)
	s.Append(batch)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.AppendResults(nil, batch)
	if len(data) != len(frame)+crcLen {
		t.Fatalf("record length = %d, want frame %d + crc %d", len(data), len(frame), crcLen)
	}
	if !bytes.Equal(data[:len(frame)], frame) {
		t.Fatal("record frame bytes differ from wire.AppendResults")
	}
	want := crc32.ChecksumIEEE(frame)
	if got := binary.BigEndian.Uint32(data[len(frame):]); got != want {
		t.Fatalf("crc = %08x, want %08x", got, want)
	}
}

// TestSinceStopsDecodingAtPage: Since(cursor, limit) reads its log only
// as far as the page goes. The last record of a six-record log is
// damaged on disk after it was written: a limit=1 read from the front —
// and every bounded read that ends before the damage — returns its page
// and counts no error, while a read that has to cross the damage stops
// there and counts one.
func TestSinceStopsDecodingAtPage(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records, perRecord = 6, 4
	for b := 0; b < records; b++ {
		s.Append(mkResults(b, perRecord))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-crcLen-1] ^= 0xff // inside the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	readErrors := func() int64 { return reg.Counter("walsink_errors_total").Value() }

	rs, next := s.Since(0, 1)
	if len(rs) != 1 || next != 1 || rs[0].TaskID != 1 {
		t.Fatalf("Since(0, 1) = %d results, next %d; want the first result and cursor 1", len(rs), next)
	}
	// A page that ends inside the fourth record reads no further than it.
	rs, next = s.Since(perRecord, 2*perRecord+1)
	if len(rs) != 2*perRecord+1 || next != 3*perRecord+1 {
		t.Fatalf("Since(%d, %d) = %d results, next %d", perRecord, 2*perRecord+1, len(rs), next)
	}
	if n := readErrors(); n != 0 {
		t.Fatalf("bounded reads that end before the damage counted %d read errors", n)
	}
	// The unbounded read has to cross the damage: it serves the intact
	// prefix and counts the error.
	rs, next = s.Since(0, 0)
	if want := (records - 1) * perRecord; len(rs) != want || next != want {
		t.Fatalf("Since(0, 0) over the damaged log = %d results, next %d; want the %d before the damage", len(rs), next, want)
	}
	if n := readErrors(); n != 1 {
		t.Fatalf("the read that crossed the damage counted %d read errors, want 1", n)
	}
}
