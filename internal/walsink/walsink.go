// Package walsink is a crash-recoverable result sink for the AmiGo
// control plane: an append-only write-ahead log of uploaded result
// batches, written as length-prefixed internal/wire frames with a
// per-record CRC32 trailer, rotated into size-bounded segment files,
// and fsynced in batches. A control shard that dies mid-campaign loses
// its in-memory registry and queues but never its accepted results —
// Open truncates a torn tail, Replay streams every durable record back
// out by cursor, and fleet.Ingest rebuilds the byte-identical dataset
// from the replay.
//
// # Record format
//
//	offset  bytes  field
//	0       8      wire frame header (magic 'R''3', version, MsgResults, payload len)
//	8       N      MsgResults payload (uvarint record count + tagged records)
//	8+N     4      CRC32 (IEEE, big-endian) over the preceding 8+N bytes
//
// One Append call writes one record. Reusing the wire framing means the
// WAL shares the fuzz-hardened strict decoder with the v3 protocol: a
// record either round-trips byte-identically or is rejected.
//
// # Segments and recovery
//
// Records append to the newest segment file (wal-00000001.seg,
// wal-00000002.seg, ...); a record that would push the active segment
// past SegmentBytes rotates to a fresh one first. On Open the segments
// are scanned in order: every record's CRC and payload decode are
// verified, a torn or corrupt tail in the FINAL segment is truncated
// away (the crash case: a record half-written when the process died),
// and corruption in any earlier segment is refused as an error —
// mid-log damage means lost data and must not be silently skipped.
// Replay never yields a record past the first corruption.
//
// Compact (see compact.go) bounds the segment count for long campaigns:
// it merges the plain sealed segments that follow the newest compacted
// artifact into one new artifact (wal-<first>-<last>.seg) with the
// identical result sequence and retires the originals, crash-safely at
// every step. An artifact is never a source again, so every appended
// byte is rewritten at most once; the price is one artifact per
// compaction instead of one per log — a log of B bytes compacted every
// k sealed segments is B ÷ (k × SegmentBytes) artifacts, at most k
// plain sealed segments and the active one.
//
// walsink.Sink implements amigo.Sink and amigo.CursorSink, so it drops
// into the server behind WithSink and the paged /admin/results route
// keeps working against the on-disk log.
package walsink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
	crcLen    = 4

	// DefaultSegmentBytes is the rotation threshold (4 MiB): large
	// enough that a fleet campaign writes a handful of segments, small
	// enough that Replay's per-segment read buffer stays modest.
	DefaultSegmentBytes = 4 << 20
	// DefaultSyncBytes is the fsync batching threshold (256 KiB of
	// unsynced appends); rotation and Close always sync regardless.
	DefaultSyncBytes = 256 << 10

	// sincePage bounds how many results one Since call returns when the
	// caller's own limit is larger or absent, so admin pagination over a
	// large on-disk log reads bounded chunks instead of the whole tail
	// per page.
	sincePage = 5000
)

// Options configures a Sink; the zero value means defaults.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB). A single
	// record larger than the threshold still gets written — it just
	// occupies a segment (almost) alone.
	SegmentBytes int
	// SyncBytes batches fsyncs: the file is synced once at least this
	// many bytes have been appended since the last sync (default
	// 256 KiB). 1 syncs every append.
	SyncBytes int
	// Obs, when set, records WAL metrics (segment count/bytes, records,
	// appends, fsyncs and fsync latency) under the given extra labels —
	// the sharded fleet passes a shard index label so per-shard WALs
	// stay distinct series in one registry.
	Obs    *obs.Registry
	Labels []obs.Label
	// CompactCrash, when set, is consulted at each compaction crash
	// stage (CompactTmpWritten, CompactRenamed); returning true aborts
	// Compact right there with ErrCompactCrashed, leaving the on-disk
	// state exactly as a process kill at that instant would. The chaos
	// kill-mid-compaction fault injects through this hook.
	CompactCrash func(stage string) bool
}

// segment is one WAL file's metadata. The source-number range and the
// compacted flag are parsed from the name once, when the segment is
// scanned at Open or created, so nothing on the upload path parses a
// file name.
type segment struct {
	name      string // file name within dir
	first     int    // global cursor of this segment's first result
	count     int    // results in this segment
	size      int64  // committed bytes (records fully written and accounted)
	a, b      int    // source segment numbers covered: [N,N] plain, [A,B] compacted
	compacted bool   // a compaction artifact (wal-A-B.seg): sealed, never a source again
}

// Sink is the WAL. It is safe for concurrent use: the server serializes
// Append via its drain lock anyway, but Since/Replay may run while
// another goroutine appends.
type Sink struct {
	dir  string
	opts Options

	// rd fences segment-file retirement against readers: Replay holds
	// it shared for the whole streaming read, Compact holds it
	// exclusive while unlinking retired sources and swapping the
	// segment list. Lock order: rd before mu; mu alone is always fine.
	rd sync.RWMutex

	mu         sync.Mutex
	segs       []segment // guarded by mu
	f          *os.File  // active (last) segment, append-only; guarded by mu
	nextSeg    int       // next segment file number; guarded by mu
	total      int       // results across all segments; guarded by mu
	unsynced   int64     // bytes appended since the last fsync; guarded by mu
	ebuf       []byte    // encode scratch; guarded by mu
	err        error     // first unrecoverable I/O error; guarded by mu
	closed     bool      // guarded by mu
	compacting bool      // a Compact is in flight; guarded by mu
	retired    int       // source segments compacted away; guarded by mu

	// cs is the rewrite scratch. Compactions are serialized by the
	// compacting flag, and only the one in flight touches it.
	cs compactScratch

	met metrics
}

type metrics struct {
	appends        *obs.Counter
	records        *obs.Counter
	fsyncs         *obs.Counter
	errors         *obs.Counter
	compactions    *obs.Counter
	compactRetired *obs.Counter
	compactInB     *obs.Counter
	compactOutB    *obs.Counter
	fsyncMs        *obs.Histogram
}

// Open opens (or creates) the WAL in dir, scanning existing segments,
// truncating a torn tail in the final segment, and positioning for
// append. Corruption anywhere before the final segment's tail is an
// error: it means durable records were damaged, which replay must
// refuse to paper over.
func Open(dir string, opts Options) (*Sink, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncBytes <= 0 {
		opts.SyncBytes = DefaultSyncBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("walsink: %w", err)
	}
	names, err := resolveSegments(dir)
	if err != nil {
		return nil, err
	}
	s := &Sink{dir: dir, opts: opts, nextSeg: 1}
	sc := scanner{dec: wire.NewDecoder()}
	cursor := 0
	for i, name := range names {
		path := filepath.Join(dir, name)
		count, valid, clean, err := sc.scan(path)
		if err != nil {
			return nil, err
		}
		a, b, compacted, _ := segRange(name)
		if !clean {
			if i != len(names)-1 {
				return nil, fmt.Errorf("walsink: segment %s is corrupt mid-log; only the final segment may carry a torn tail", name)
			}
			if compacted {
				// A compacted segment is written whole and renamed into
				// place after an fsync — it can never carry a torn
				// tail. Damage here is real data loss, not a crash
				// artifact, and truncation would silently drop records.
				return nil, fmt.Errorf("walsink: compacted segment %s is corrupt; durable records were damaged", name)
			}
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("walsink: truncating torn tail of %s: %w", name, err)
			}
		}
		s.segs = append(s.segs, segment{name: name, first: cursor, count: count, size: valid, a: a, b: b, compacted: compacted})
		cursor += count
		if b >= s.nextSeg {
			s.nextSeg = b + 1
		}
	}
	s.total = cursor
	if len(s.segs) == 0 || s.segs[len(s.segs)-1].compacted {
		// No segments yet, or the newest file is a sealed compacted
		// segment: appends need a fresh plain segment.
		if err := s.addSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(filepath.Join(dir, s.segs[len(s.segs)-1].name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("walsink: %w", err)
		}
		s.f = f
	}
	s.initObs()
	return s, nil
}

func (s *Sink) initObs() {
	reg, labels := s.opts.Obs, s.opts.Labels
	s.met = metrics{
		appends:        reg.Counter("walsink_appends_total", labels...),
		records:        reg.Counter("walsink_records_total", labels...),
		fsyncs:         reg.Counter("walsink_fsyncs_total", labels...),
		errors:         reg.Counter("walsink_errors_total", labels...),
		compactions:    reg.Counter("walsink_compactions_total", labels...),
		compactRetired: reg.Counter("walsink_compact_retired_segments_total", labels...),
		compactInB:     reg.Counter("walsink_compact_in_bytes_total", labels...),
		compactOutB:    reg.Counter("walsink_compact_out_bytes_total", labels...),
		fsyncMs:        reg.Histogram("walsink_fsync_ms", labels...),
	}
	reg.GaugeFunc("walsink_segments", func() float64 {
		n, _ := s.Segments()
		return float64(n)
	}, labels...)
	reg.GaugeFunc("walsink_bytes", func() float64 {
		_, b := s.Segments()
		return float64(b)
	}, labels...)
}

// segmentNames lists the WAL segment files in dir, in log order (the
// zero-padded numbering makes lexicographic order numeric).
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("walsink: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

func segNumber(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, segPrefix+"%08d"+segSuffix, &n); err != nil {
		return 0, false
	}
	return n, true
}

// Append implements amigo.Sink: it encodes the batch as one wire
// MsgResults frame + CRC32 trailer and appends it to the active
// segment, rotating and fsync-batching as configured. The Sink
// interface carries no error return, so I/O failures latch into Err()
// and subsequent appends become no-ops — a WAL that cannot write is a
// dead shard, and the operator must see it (walsink_errors_total)
// rather than silently losing tail results.
func (s *Sink) Append(batch []wire.Result) {
	if len(batch) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		s.met.errors.Add(1)
		return
	}
	s.ebuf = wire.AppendResults(s.ebuf[:0], batch)
	var crcb [crcLen]byte
	binary.BigEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(s.ebuf))
	s.ebuf = append(s.ebuf, crcb[:]...)
	recLen := int64(len(s.ebuf))

	active := &s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+recLen > int64(s.opts.SegmentBytes) {
		if err := s.rotateLocked(); err != nil {
			s.failLocked(err)
			return
		}
		active = &s.segs[len(s.segs)-1]
	}
	if _, err := s.f.Write(s.ebuf); err != nil {
		// The tail may be half-written; the next Open truncates it.
		s.failLocked(fmt.Errorf("walsink: append: %w", err))
		return
	}
	active.size += recLen
	active.count += len(batch)
	s.total += len(batch)
	s.unsynced += recLen
	s.met.appends.Add(1)
	s.met.records.Add(int64(len(batch)))
	if s.unsynced >= int64(s.opts.SyncBytes) {
		if err := s.syncLocked(); err != nil {
			s.failLocked(err)
		}
	}
}

func (s *Sink) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
	s.met.errors.Add(1)
}

// rotateLocked syncs and closes the active segment and opens the next.
func (s *Sink) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("walsink: rotate: %w", err)
	}
	return s.addSegmentLocked()
}

// addSegmentLocked creates the next numbered segment file and makes it
// active.
func (s *Sink) addSegmentLocked() error {
	name := segName(s.nextSeg)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("walsink: creating segment: %w", err)
	}
	s.segs = append(s.segs, segment{name: name, first: s.total, a: s.nextSeg, b: s.nextSeg})
	s.nextSeg++
	s.f = f
	return nil
}

func (s *Sink) syncLocked() error {
	if s.unsynced == 0 {
		return nil
	}
	//lint:allow wallclock fsync latency is operator telemetry (a histogram), never an input to any dataset
	start := time.Now()
	err := s.f.Sync()
	//lint:allow wallclock see above: measuring a real disk sync requires the real clock
	s.met.fsyncMs.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	if err != nil {
		return fmt.Errorf("walsink: fsync: %w", err)
	}
	s.met.fsyncs.Add(1)
	s.unsynced = 0
	return nil
}

// Sync forces an fsync of any unsynced appends.
func (s *Sink) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return nil
	}
	if err := s.syncLocked(); err != nil {
		s.failLocked(err)
		return err
	}
	return nil
}

// Close syncs and closes the active segment. The log remains valid on
// disk; a later Open resumes appending where Close left off.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	syncErr := s.syncLocked()
	closeErr := s.f.Close()
	if s.err != nil {
		return s.err
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Err returns the first unrecoverable I/O error, if any. A non-nil Err
// means appends after the error were dropped and the shard must be
// treated as failed.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Len implements amigo.CursorSink: the cursor one past the newest
// durable result.
func (s *Sink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Segments reports the current segment count and total committed bytes
// (the WAL size on disk, excluding any torn tail).
func (s *Sink) Segments() (n int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		bytes += seg.size
	}
	return len(s.segs), bytes
}

// SealedSinceCompact reports how many plain sealed segments follow the
// newest compacted artifact — what the next Compact(Len()) would merge.
// It is the compaction trigger's input and runs on every upload, so it
// reads recorded flags only: no name parsing, no allocation.
func (s *Sink) SealedSinceCompact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := len(s.segs) - 2; i >= 0 && !s.segs[i].compacted; i-- {
		n++
	}
	return n
}

// errPageFull stops a Replay early once Since has filled its page.
var errPageFull = errors.New("walsink: page full")

// Since implements amigo.CursorSink: it returns up to min(limit,
// sincePage) results (sincePage when limit <= 0) at positions >= cursor,
// read back from disk, plus the cursor one past the last returned
// result. The replay stops at the record that fills the page, so a small
// limit decodes a page's worth, not the tail. Decoded payloads are
// backed by the per-segment read buffer, which the caller exclusively
// owns.
func (s *Sink) Since(cursor, limit int) ([]wire.Result, int) {
	total := s.Len()
	cursor = max(0, min(cursor, total)) // clamp out-of-range cursors the way MemorySink does
	if limit <= 0 || limit > sincePage {
		limit = sincePage
	}
	out := make([]wire.Result, 0, min(limit, total-cursor))
	next, err := s.Replay(cursor, func(r wire.Result) error {
		// Check the bound before consuming: Replay only counts results
		// fn accepted, so next must cover exactly the appended records
		// or a full page would hand back a cursor one short and the
		// boundary result would be re-read as a duplicate.
		if len(out) >= limit {
			return errPageFull
		}
		out = append(out, r)
		return nil
	})
	if err != nil && !errors.Is(err, errPageFull) {
		// CursorSink has no error channel; surface via metrics and
		// return the prefix read so far — the caller's cursor loop
		// stops advancing rather than spinning.
		s.mu.Lock()
		s.met.errors.Add(1)
		s.mu.Unlock()
	}
	return out, next
}

// Replay streams every durable result at positions >= cursor through fn
// in log order and returns the cursor one past the last result yielded.
// It reads only committed bytes, so it is safe concurrently with
// Append, and it holds the retirement lock shared so a concurrent
// Compact cannot unlink a segment out from under the stream. A non-nil
// error from fn aborts the replay and is returned. Replay never yields
// a record past a corruption: committed bytes are re-verified (CRC +
// strict decode) on the way out, and the first mismatch stops the
// stream with an error.
func (s *Sink) Replay(cursor int, fn func(wire.Result) error) (int, error) {
	if cursor < 0 {
		cursor = 0
	}
	s.rd.RLock()
	defer s.rd.RUnlock()
	s.mu.Lock()
	segs := append([]segment(nil), s.segs...)
	s.mu.Unlock()

	dec := wire.NewDecoder()
	var scratch []wire.Result
	next := cursor
	for _, seg := range segs {
		if seg.count == 0 || seg.first+seg.count <= cursor {
			continue
		}
		// A fresh buffer per segment: fn may keep what it is handed (Since
		// does), and decoded payloads alias the read buffer.
		data, err := readFileInto(nil, filepath.Join(s.dir, seg.name), seg.size)
		if err != nil {
			return next, err
		}
		idx := seg.first
		off := 0
		for off < len(data) {
			_, payload, tot, err := verifyRecord(data[off:])
			if err != nil {
				return next, fmt.Errorf("walsink: %s at offset %d: %w", seg.name, off, err)
			}
			scratch, err = dec.Results(payload, scratch[:0])
			if err != nil {
				return next, fmt.Errorf("walsink: %s at offset %d: %w", seg.name, off, err)
			}
			for i := range scratch {
				if idx >= cursor {
					if err := fn(scratch[i]); err != nil {
						return next, err
					}
					next++
				}
				idx++
			}
			off += tot
		}
	}
	return next, nil
}

// verifyRecord parses and CRC-checks one record at the head of data,
// returning the frame bytes (header+payload), the payload alone, and
// the total record length consumed.
func verifyRecord(data []byte) (frame, payload []byte, tot int, err error) {
	if len(data) < wire.HeaderLen+crcLen {
		return nil, nil, 0, errors.New("torn record header")
	}
	h, err := wire.ParseHeader(data[:wire.HeaderLen])
	if err != nil {
		return nil, nil, 0, err
	}
	if h.Type != wire.MsgResults {
		return nil, nil, 0, fmt.Errorf("unexpected frame type 0x%02x in WAL", h.Type)
	}
	tot = wire.HeaderLen + int(h.N) + crcLen
	if len(data) < tot {
		return nil, nil, 0, errors.New("torn record body")
	}
	frame = data[:wire.HeaderLen+int(h.N)]
	want := binary.BigEndian.Uint32(data[wire.HeaderLen+int(h.N) : tot])
	if crc32.ChecksumIEEE(frame) != want {
		return nil, nil, 0, errors.New("record CRC mismatch")
	}
	return frame, frame[wire.HeaderLen:], tot, nil
}

// readFileInto reads exactly the first size bytes of path — the
// committed prefix; a concurrent appender may have written more — or
// the whole file when size < 0, into buf, which is grown only when its
// capacity is short. The returned slice aliases buf.
func readFileInto(buf []byte, path string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("walsink: %w", err)
	}
	defer f.Close()
	if size < 0 {
		st, err := f.Stat()
		if err != nil {
			return nil, fmt.Errorf("walsink: %w", err)
		}
		size = st.Size()
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("walsink: reading %s: %w", filepath.Base(path), err)
	}
	return buf, nil
}

// scanner validates segments at Open time. One read buffer serves every
// segment it scans: a scan only counts, so nothing it decodes outlives
// the next read.
type scanner struct {
	dec     *wire.Decoder
	scratch []wire.Result
	buf     []byte
}

// scan walks a segment file record by record. It returns the number of
// results in the valid prefix, the byte length of that prefix, and
// clean=true when the file ends exactly on a record boundary. Any CRC
// mismatch, decode failure, or short tail ends the valid prefix there
// (clean=false); the caller decides whether that is a truncatable torn
// tail (final segment) or unacceptable mid-log corruption.
func (sc *scanner) scan(path string) (count int, valid int64, clean bool, err error) {
	data, err := readFileInto(sc.buf[:0], path, -1)
	if err != nil {
		return 0, 0, false, err
	}
	sc.buf = data
	off := 0
	for off < len(data) {
		_, payload, tot, err := verifyRecord(data[off:])
		if err != nil {
			return count, int64(off), false, nil
		}
		sc.scratch, err = sc.dec.Results(payload, sc.scratch[:0])
		if err != nil {
			return count, int64(off), false, nil
		}
		count += len(sc.scratch)
		off += tot
	}
	return count, int64(off), true, nil
}
