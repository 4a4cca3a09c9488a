package walsink

// WAL compaction: Compact merges the plain sealed segments that follow
// the newest compacted artifact into one new compacted segment and
// retires the originals, bounding the file count (and the per-frame
// overhead) for campaigns that outlive SegmentBytes × N. Compaction
// never drops or reorders a result — the compacted segment carries the
// byte-equivalent record stream re-batched into dense canonical frames
// with fresh CRCs, so Replay before and after a compaction yields the
// identical sequence.
//
// # Linear rewrite, more files
//
// An artifact is sealed for good: no later compaction reads, decodes or
// rewrites it, so each appended byte is rewritten at most once and the
// total rewrite cost is linear in the log (folding the previous
// artifact into every new one made it quadratic). The trade is the file
// count: a caller that compacts every k sealed segments holds about
// log bytes ÷ (k × SegmentBytes) artifacts, at most k plain sealed
// segments and the active one — 64 artifacts for a 1 GiB log at k = 4
// and 4 MiB segments — instead of one ever-growing artifact. There is no
// second tier that merges artifacts; none is built until a workload
// needs one.
//
// # Crash safety
//
// The rewrite follows the classic tmp → fsync → rename → retire
// protocol, and every intermediate state is recoverable at Open:
//
//	crash point                     disk state                recovery
//	while writing wal-compact.tmp   tmp + sources             delete tmp, use sources
//	tmp durable, before rename      tmp + sources             delete tmp, use sources
//	after rename, before retire     compacted + sources       verify compacted, retire sources
//	mid-retire                      compacted + some sources  retire remaining sources
//	after retire                    compacted only            nothing to do
//
// The compacted segment's name, wal-<first>-<last>.seg, is the
// retention tombstone: it records exactly which source segment numbers
// it replaced, so a reopen can tell a crash leftover (a source whose
// number the compacted range covers) from live log tail. '-' sorts
// before '.', so a compacted segment orders immediately before the
// plain segment carrying its first source number — lexicographic
// directory order remains log order.
//
// If the compacted segment itself fails verification while every
// source it names is still present and intact (their ranges tile the
// compacted range), the sources win and the artifact is deleted: the
// rename happened but the artifact is not trustworthy, and the intact
// sources carry the same records. Once any source is gone, a damaged
// compacted segment is refused as mid-log corruption — durable data
// was lost and replay must not paper over it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"roamsim/internal/wire"
)

const (
	// compactTmpName is the scratch file a compaction builds before the
	// atomic rename. At most one compaction runs per Sink, and a stray
	// tmp (a pre-rename crash) is deleted at Open.
	compactTmpName = "wal-compact.tmp"

	// compactBatch is how many results one compacted frame carries:
	// large enough to amortize the 12-byte frame+CRC overhead, small
	// enough that a frame stays far below the wire decoder's limits.
	compactBatch = 1024
)

// Compaction crash stages, in protocol order — the points where the
// chaos kill-mid-compaction fault can abort a Compact (see
// Options.CompactCrash).
const (
	// CompactTmpWritten: wal-compact.tmp is durable; the rename has not
	// happened. Recovery discards the tmp and keeps the sources.
	CompactTmpWritten = "tmp-written"
	// CompactRenamed: the compacted segment is live on disk and the
	// source segments have not been retired — the torn window the
	// crash-recovery tests target. Recovery verifies the compacted
	// segment and retires the covered sources.
	CompactRenamed = "renamed"
)

// CompactStages lists the injectable crash points in protocol order.
var CompactStages = []string{CompactTmpWritten, CompactRenamed}

// ErrCompactCrashed is returned by Compact when Options.CompactCrash
// aborted it at a crash stage. The sink's in-memory state still
// describes the pre-compaction segments (which remain on disk), so the
// live sink keeps appending and replaying correctly; the torn on-disk
// state is resolved by the next Open.
var ErrCompactCrashed = errors.New("walsink: compaction aborted at injected crash point")

// CompactStats reports what one Compact call did. A zero Sources means
// the call was a no-op (nothing eligible below keepCursor).
type CompactStats struct {
	Sources  int   // source segments merged and retired
	Records  int   // results rewritten into the compacted segment
	InBytes  int64 // committed bytes of the source segments
	OutBytes int64 // bytes of the compacted segment
}

// compactedName formats the compacted segment covering source segment
// numbers [a, b].
func compactedName(a, b int) string {
	return fmt.Sprintf("%s%08d-%08d%s", segPrefix, a, b, segSuffix)
}

// segRange parses a segment file name into the source-number range it
// covers: plain wal-N.seg covers [N,N]; compacted wal-A-B.seg covers
// [A,B].
func segRange(name string) (a, b int, compacted, ok bool) {
	if _, err := fmt.Sscanf(name, segPrefix+"%08d-%08d"+segSuffix, &a, &b); err == nil && a <= b {
		return a, b, true, true
	}
	if n, ok := segNumber(name); ok {
		return n, n, false, true
	}
	return 0, 0, false, false
}

// Compact merges the plain sealed segments that follow the newest
// compacted artifact — as many of them as lie wholly below keepCursor —
// into one new compacted segment and retires the originals. keepCursor
// is the caller's replay watermark: segments at or above it may still
// be paged record-by-record and are left untouched; pass Len() to
// compact everything sealed. Neither the active (append) segment nor an
// existing artifact is ever a source. Compact is safe concurrently with
// Append, Since and Replay; concurrent Compact calls coalesce (the
// second returns a zero CompactStats).
func (s *Sink) Compact(keepCursor int) (CompactStats, error) {
	var st CompactStats
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return st, err
	}
	if s.closed {
		s.mu.Unlock()
		return st, errors.New("walsink: compact on closed sink")
	}
	if s.compacting {
		s.mu.Unlock()
		return st, nil
	}
	// Sources: the run of sealed segments after the newest artifact that
	// lies entirely below keepCursor.
	j := len(s.segs) - 1
	for j > 0 && !s.segs[j-1].compacted {
		j--
	}
	k := j
	for k < len(s.segs)-1 && s.segs[k].first+s.segs[k].count <= keepCursor {
		k++
	}
	if k == j {
		s.mu.Unlock()
		return st, nil
	}
	sources := append([]segment(nil), s.segs[j:k]...)
	s.compacting = true
	s.mu.Unlock()
	done := false
	defer func() {
		if !done {
			s.mu.Lock()
			s.compacting = false
			s.mu.Unlock()
		}
	}()

	firstNum, lastNum := sources[0].a, sources[len(sources)-1].b
	if firstNum < 1 || lastNum < firstNum {
		return st, fmt.Errorf("walsink: compact: unparseable segment name %q", sources[0].name)
	}
	for _, seg := range sources {
		st.Sources++
		st.Records += seg.count
		st.InBytes += seg.size
	}

	tmpPath := filepath.Join(s.dir, compactTmpName)
	outBytes, wrote, err := s.rewrite(tmpPath, sources)
	if err != nil {
		os.Remove(tmpPath)
		return st, err
	}
	if wrote != st.Records {
		os.Remove(tmpPath)
		return st, fmt.Errorf("walsink: compact: rewrote %d results, sources hold %d", wrote, st.Records)
	}
	st.OutBytes = outBytes
	if s.crashAt(CompactTmpWritten) {
		// Simulated process death: the durable tmp stays on disk (Open
		// deletes it); in-memory state still describes the sources.
		return st, ErrCompactCrashed
	}

	name := compactedName(firstNum, lastNum)
	if err := os.Rename(tmpPath, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmpPath)
		return st, fmt.Errorf("walsink: compact: %w", err)
	}
	if err := fsyncDir(s.dir); err != nil {
		return st, err
	}
	if s.crashAt(CompactRenamed) {
		// The torn window: compacted segment and sources coexist. The
		// live sink keeps using the sources (in-memory state untouched);
		// a reopen retires them against the compacted segment.
		return st, ErrCompactCrashed
	}

	// Retire the sources and swap the in-memory segment list. The
	// writer lock fences Replay/Since readers: a reader that snapshotted
	// the source segments finishes its file reads before any source is
	// unlinked. Removal sweeps every file the compacted range covers —
	// including stale artifacts of previously aborted compactions — not
	// just the recorded sources.
	s.rd.Lock()
	s.mu.Lock()
	s.segs[j] = segment{name: name, first: sources[0].first, count: st.Records, size: st.OutBytes,
		a: firstNum, b: lastNum, compacted: true}
	s.segs = append(s.segs[:j+1], s.segs[k:]...)
	s.retired += len(sources)
	s.compacting = false
	done = true
	s.mu.Unlock()
	var removeErr error
	if names, err := segmentNames(s.dir); err != nil {
		removeErr = err
	} else {
		for _, old := range names {
			if old == name {
				continue
			}
			if a, b, _, ok := segRange(old); ok && firstNum <= a && b <= lastNum {
				if err := os.Remove(filepath.Join(s.dir, old)); err != nil && removeErr == nil {
					removeErr = fmt.Errorf("walsink: compact: retiring %s: %w", old, err)
				}
			}
		}
	}
	s.rd.Unlock()

	s.met.compactions.Add(1)
	s.met.compactRetired.Add(int64(st.Sources))
	s.met.compactInB.Add(st.InBytes)
	s.met.compactOutB.Add(st.OutBytes)
	if removeErr != nil {
		// A source that cannot be unlinked is the "renamed" crash state:
		// recoverable at the next Open, but the operator should see it.
		s.mu.Lock()
		s.met.errors.Add(1)
		s.mu.Unlock()
		return st, removeErr
	}
	return st, nil
}

// crashAt consults the injected crash hook, if any.
func (s *Sink) crashAt(stage string) bool {
	return s.opts.CompactCrash != nil && s.opts.CompactCrash(stage)
}

// compactScratch is what a rewrite reuses from one compaction to the
// next: the read buffer every source is streamed through, the encode
// buffer, the decoder and the re-batching slices. It grows to the
// largest source segment and the largest output frame and stays there.
type compactScratch struct {
	rbuf    []byte
	ebuf    []byte
	dec     *wire.Decoder
	scratch []wire.Result
	batch   []wire.Result
}

// rewrite streams the source segments' records into path, re-batched
// into dense frames of up to compactBatch results, and fsyncs the
// result. It returns the bytes written and the number of results
// rewritten. Sources are immutable sealed files, so no lock is needed
// to read them. Every source is read through the one scratch buffer, and
// decoded results alias it, so the batch is flushed at each source
// boundary before the buffer is reused: a frame never spans two sources.
func (s *Sink) rewrite(path string, sources []segment) (int64, int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("walsink: compact: %w", err)
	}
	defer f.Close()

	cs := &s.cs
	if cs.dec == nil {
		cs.dec = wire.NewDecoder()
	}
	cs.batch = cs.batch[:0] // a rewrite that failed midway leaves its tail here
	var (
		out   int64
		wrote int
	)
	flush := func() error {
		if len(cs.batch) == 0 {
			return nil
		}
		cs.ebuf = wire.AppendResults(cs.ebuf[:0], cs.batch)
		var crcb [crcLen]byte
		binary.BigEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(cs.ebuf))
		cs.ebuf = append(cs.ebuf, crcb[:]...)
		if _, err := f.Write(cs.ebuf); err != nil {
			return fmt.Errorf("walsink: compact: %w", err)
		}
		out += int64(len(cs.ebuf))
		wrote += len(cs.batch)
		cs.batch = cs.batch[:0]
		return nil
	}
	for _, seg := range sources {
		data, err := readFileInto(cs.rbuf[:0], filepath.Join(s.dir, seg.name), seg.size)
		if err != nil {
			return 0, 0, err
		}
		cs.rbuf = data
		off := 0
		for off < len(data) {
			_, payload, tot, err := verifyRecord(data[off:])
			if err != nil {
				return 0, 0, fmt.Errorf("walsink: compact: %s at offset %d: %w", seg.name, off, err)
			}
			cs.scratch, err = cs.dec.Results(payload, cs.scratch[:0])
			if err != nil {
				return 0, 0, fmt.Errorf("walsink: compact: %s at offset %d: %w", seg.name, off, err)
			}
			for i := range cs.scratch {
				cs.batch = append(cs.batch, cs.scratch[i])
				if len(cs.batch) >= compactBatch {
					if err := flush(); err != nil {
						return 0, 0, err
					}
				}
			}
			off += tot
		}
		if err := flush(); err != nil {
			return 0, 0, err
		}
	}
	if err := f.Sync(); err != nil {
		return 0, 0, fmt.Errorf("walsink: compact: fsync: %w", err)
	}
	return out, wrote, nil
}

// Retired reports how many source segments this Sink has compacted
// away since Open.
func (s *Sink) Retired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retired
}

// fsyncDir makes a rename/unlink in dir durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("walsink: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("walsink: fsync dir: %w", err)
	}
	return nil
}

// resolveSegments lists dir's segment files, finishes or rolls back any
// compaction a previous process died in the middle of, and returns the
// surviving names in log order. A stray wal-compact.tmp (pre-rename
// crash) is deleted. For each compacted segment, every other file whose
// source-number range it covers is a retired leftover:
//
//   - compacted segment verifies clean → the leftovers are deleted
//     (completing the crashed retire step), unless intact leftovers
//     fully tile the range and disagree with it on record count — then
//     the artifact is deleted instead, because self-consistent sources
//     outrank an artifact that cannot match them;
//   - compacted segment is torn/corrupt and intact leftovers fully
//     tile its range → the artifact is deleted and the sources win;
//   - compacted segment is damaged and some source is already gone →
//     refused as mid-log corruption, exactly like a damaged plain
//     segment.
func resolveSegments(dir string) ([]string, error) {
	if err := os.Remove(filepath.Join(dir, compactTmpName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("walsink: removing stray %s: %w", compactTmpName, err)
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	type entry struct {
		name      string
		a, b      int
		compacted bool
		valid     bool
		retired   bool
	}
	entries := make([]entry, len(names))
	anyCompacted := false
	for i, n := range names {
		a, b, c, ok := segRange(n)
		entries[i] = entry{name: n, a: a, b: b, compacted: c, valid: ok}
		anyCompacted = anyCompacted || (ok && c)
	}
	if !anyCompacted {
		return names, nil // fast path: nothing to resolve
	}

	// Process compacted segments widest-range first so a wide artifact
	// can retire a narrower one it superseded.
	order := make([]int, 0, len(entries))
	for i, e := range entries {
		if e.valid && e.compacted {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(x, y int) bool {
		ex, ey := entries[order[x]], entries[order[y]]
		if wx, wy := ex.b-ex.a, ey.b-ey.a; wx != wy {
			return wx > wy
		}
		return ex.a < ey.a
	})

	sc := scanner{dec: wire.NewDecoder()}
	for _, ci := range order {
		c := &entries[ci]
		if c.retired {
			continue
		}
		var covered []int
		for j := range entries {
			e := &entries[j]
			if j == ci || !e.valid || e.retired {
				continue
			}
			switch {
			case c.a <= e.a && e.b <= c.b:
				covered = append(covered, j)
			case e.b < c.a || c.b < e.a:
				// disjoint
			default:
				return nil, fmt.Errorf("walsink: segments %s and %s overlap partially", c.name, e.name)
			}
		}
		ccount, _, cclean, err := sc.scan(filepath.Join(dir, c.name))
		if err != nil {
			return nil, err
		}
		// Do the intact leftovers fully tile the compacted range, and
		// with how many records?
		sort.Slice(covered, func(x, y int) bool { return entries[covered[x]].a < entries[covered[y]].a })
		tiles, allClean, sum := len(covered) > 0, true, 0
		nextA := c.a
		for _, j := range covered {
			e := entries[j]
			if e.a != nextA {
				tiles = false
				break
			}
			n, _, clean, err := sc.scan(filepath.Join(dir, e.name))
			if err != nil {
				return nil, err
			}
			allClean = allClean && clean
			sum += n
			nextA = e.b + 1
		}
		tiles = tiles && nextA == c.b+1

		switch {
		case cclean && !(tiles && allClean && sum != ccount):
			for _, j := range covered {
				entries[j].retired = true
			}
		case tiles && allClean:
			// Torn artifact (or one contradicting intact sources): the
			// sources carry the data; drop the artifact.
			c.retired = true
		default:
			return nil, fmt.Errorf("walsink: compacted segment %s is corrupt and its sources are incomplete; durable records were damaged", c.name)
		}
	}

	var survivors []string
	prevB := -1
	prevValid := false
	for _, e := range entries {
		if e.retired {
			if err := os.Remove(filepath.Join(dir, e.name)); err != nil {
				return nil, fmt.Errorf("walsink: retiring %s: %w", e.name, err)
			}
			continue
		}
		if e.valid {
			if prevValid && e.a <= prevB {
				return nil, fmt.Errorf("walsink: segments overlap at %s", e.name)
			}
			prevB, prevValid = e.b, true
		}
		survivors = append(survivors, e.name)
	}
	return survivors, nil
}
