package walsink

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"roamsim/internal/obs"
	"roamsim/internal/wire"
)

// fillSegments appends batches until the WAL holds at least minSegs
// segments, returning everything appended.
func fillSegments(t *testing.T, s *Sink, minSegs int) []wire.Result {
	t.Helper()
	var want []wire.Result
	for b := 0; ; b++ {
		if n, _ := s.Segments(); n >= minSegs {
			return want
		}
		batch := mkResults(b, 4)
		s.Append(batch)
		want = append(want, batch...)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompactMergesHead(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, Options{SegmentBytes: 512, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := fillSegments(t, s, 5)
	before, beforeBytes := s.Segments()

	st, err := s.Compact(s.Len())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sources != before-1 {
		t.Fatalf("Sources = %d, want %d (all sealed segments)", st.Sources, before-1)
	}
	if st.Records == 0 || st.InBytes == 0 || st.OutBytes == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	if after, _ := s.Segments(); after != 2 {
		t.Fatalf("segments after compact = %d, want 2 (compacted head + active)", after)
	}
	if got := s.Retired(); got != st.Sources {
		t.Fatalf("Retired = %d, want %d", got, st.Sources)
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d — compaction must not drop records", got, len(want))
	}
	if got := collect(t, s, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after compact diverged")
	}
	// Cursor replay into the middle still works across the seam.
	mid := len(want) / 2
	if got := collect(t, s, mid); !reflect.DeepEqual(got, want[mid:]) {
		t.Fatalf("replay from %d after compact diverged", mid)
	}

	// Appends continue, and a reopen sees one compacted + live tail.
	extra := mkResults(99, 4)
	s.Append(extra)
	want = append(want, extra...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := collect(t, s2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen diverged")
	}
	if n, b := s2.Segments(); n > before || b > beforeBytes+int64(len(extra)*256) {
		t.Fatalf("compaction did not bound the log: %d segments, %d bytes", n, b)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "walsink_compactions_total 1") {
		t.Fatalf("missing compaction metric:\n%s", buf.String())
	}
}

func TestCompactKeepCursorBounds(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := fillSegments(t, s, 6)

	// A keepCursor inside segment 2 must leave segments 2+ untouched.
	s.mu.Lock()
	segs := append([]segment(nil), s.segs...)
	s.mu.Unlock()
	keep := segs[2].first + 1
	st, err := s.Compact(keep)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sources != 2 {
		t.Fatalf("Sources = %d, want 2 (only segments wholly below keepCursor)", st.Sources)
	}
	if got := collect(t, s, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after bounded compact diverged")
	}

	// keepCursor 0: nothing eligible.
	if st, err := s.Compact(0); err != nil || st.Sources != 0 {
		t.Fatalf("Compact(0) = %+v, %v; want no-op", st, err)
	}

	// A second full compaction merges the sealed segments after the
	// first artifact into a second artifact and leaves the first alone.
	plain := s.SealedSinceCompact()
	st, err = s.Compact(s.Len())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sources != plain || plain < 2 {
		t.Fatalf("second compaction Sources = %d, want the %d plain sealed segments (>= 2)", st.Sources, plain)
	}
	if n, _ := s.Segments(); n != 3 {
		t.Fatalf("segments after second compaction = %d, want 3 (two artifacts + active)", n)
	}
	if got := collect(t, s, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after second compaction diverged")
	}

	// With nothing sealed since the last artifact, Compact is a no-op:
	// artifacts are never re-wrapped.
	if st, err := s.Compact(s.Len()); err != nil || st != (CompactStats{}) {
		t.Fatalf("Compact over artifacts only = %+v, %v; want no-op", st, err)
	}
}

// sealedSegments snapshots the sink's sealed segments.
func sealedSegments(s *Sink) []segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]segment(nil), s.segs[:len(s.segs)-1]...)
}

// TestCompactRewritesEachByteOnce grows a log through K compactions and
// pins the linear-rewrite contract: every compaction's sources are
// exactly the plain sealed segments after the newest artifact (no
// artifact is ever read again), so the bytes compaction read in total
// never exceed the bytes appended, and the log holds one artifact per
// compaction.
func TestCompactRewritesEachByteOnce(t *testing.T) {
	const K = 6
	s, err := Open(t.TempDir(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		want     []wire.Result
		appended int64
		inBytes  int64
		outBytes int64
	)
	for round := 0; round < K; round++ {
		for b := 0; s.SealedSinceCompact() < 3; b++ {
			batch := mkResults(round*1000+b, 4)
			s.Append(batch)
			want = append(want, batch...)
			appended += int64(len(walRecord(batch)))
		}
		var plain []segment
		var plainBytes int64
		for _, seg := range sealedSegments(s) {
			if !seg.compacted {
				plain = append(plain, seg)
				plainBytes += seg.size
			}
		}
		st, err := s.Compact(s.Len())
		if err != nil {
			t.Fatal(err)
		}
		if st.Sources != len(plain) || st.InBytes != plainBytes {
			t.Fatalf("round %d: compaction read %d sources / %d bytes, the plain sealed segments are %d / %d — an artifact was a source",
				round, st.Sources, st.InBytes, len(plain), plainBytes)
		}
		inBytes += st.InBytes
		outBytes += st.OutBytes
		sealed := sealedSegments(s)
		if len(sealed) != round+1 {
			t.Fatalf("round %d: %d sealed segments, want %d artifacts", round, len(sealed), round+1)
		}
		for i, seg := range sealed {
			if !seg.compacted || (i > 0 && seg.a != sealed[i-1].b+1) {
				t.Fatalf("round %d: sealed segments are not a run of adjacent artifacts: %+v", round, sealed)
			}
		}
	}
	if inBytes > appended {
		t.Fatalf("compaction read %d bytes of a log that was only ever appended %d", inBytes, appended)
	}
	if outBytes > inBytes {
		t.Fatalf("compaction wrote %d bytes from %d: re-framing must not grow the log", outBytes, inBytes)
	}
	if got := collect(t, s, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after %d compactions diverged", K)
	}
}

// TestCompactedPagingMatchesUncompacted appends the same batches to two
// logs, compacts one of them into several artifacts, and pages both
// from every cursor: Since and Replay must hand back the byte-identical
// result stream whether a page starts inside an artifact, on an
// artifact boundary, or in the plain tail.
func TestCompactedPagingMatchesUncompacted(t *testing.T) {
	plain, err := Open(t.TempDir(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	compacted, err := Open(t.TempDir(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer compacted.Close()
	for b := 0; b < 60; b++ {
		batch := mkResults(b, 1+b%5)
		plain.Append(batch)
		compacted.Append(batch)
		if compacted.SealedSinceCompact() >= 2 {
			if _, err := compacted.Compact(compacted.Len()); err != nil {
				t.Fatal(err)
			}
		}
	}
	artifacts := 0
	for _, seg := range sealedSegments(compacted) {
		if seg.compacted {
			artifacts++
		}
	}
	if artifacts < 3 {
		t.Fatalf("only %d artifacts; the test needs several boundaries to page across", artifacts)
	}
	if plain.Len() != compacted.Len() {
		t.Fatalf("Len: plain %d, compacted %d", plain.Len(), compacted.Len())
	}
	for cursor := 0; cursor <= plain.Len(); cursor++ {
		want, wantNext := plain.Since(cursor, 0)
		got, gotNext := compacted.Since(cursor, 0)
		if gotNext != wantNext || !bytes.Equal(wire.AppendResults(nil, got), wire.AppendResults(nil, want)) {
			t.Fatalf("Since(%d): compacted log returned %d results (next %d), plain log %d (next %d), or their bytes differ",
				cursor, len(got), gotNext, len(want), wantNext)
		}
	}
	if got, want := collect(t, compacted, 0), collect(t, plain, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("full replay of the compacted log diverged")
	}
}

// TestSegmentsAllocFree: Segments and SealedSinceCompact are read on
// every upload (the compaction trigger and the WAL gauges); neither may
// allocate or parse a file name.
func TestSegmentsAllocFree(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillSegments(t, s, 4)
	if _, err := s.Compact(s.Len()); err != nil {
		t.Fatal(err)
	}
	fillSegments(t, s, 4)
	if got := s.SealedSinceCompact(); got != 2 {
		t.Fatalf("SealedSinceCompact = %d, want 2 (artifact + 2 sealed + active)", got)
	}
	if a := testing.AllocsPerRun(100, func() { s.Segments() }); a != 0 {
		t.Fatalf("Segments allocates %.0f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { s.SealedSinceCompact() }); a != 0 {
		t.Fatalf("SealedSinceCompact allocates %.0f times", a)
	}
}

// TestCompactionCrashRecovery is the satellite torn-compaction test:
// the process dies at each crash stage of the protocol — after writing
// wal-compact.tmp, and in the torn window between renaming the
// compacted segment into place and retiring the sources — and a reopen
// must yield the exact original sequence with zero duplicates.
func TestCompactionCrashRecovery(t *testing.T) {
	for _, stage := range CompactStages {
		t.Run(stage, func(t *testing.T) {
			// The crash hits the first compaction of a fresh log, and the
			// third of a log that already holds two artifacts.
			for _, artifacts := range []int{0, 2} {
				t.Run(fmt.Sprintf("artifacts=%d", artifacts), func(t *testing.T) {
					testCompactionCrash(t, stage, artifacts)
				})
			}
		})
	}
}

func testCompactionCrash(t *testing.T, stage string, artifacts int) {
	dir := t.TempDir()
	armed := false
	s, err := Open(dir, Options{
		SegmentBytes: 512,
		CompactCrash: func(at string) bool { return armed && at == stage },
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []wire.Result
	for i := 0; i < artifacts; i++ {
		want = append(want, fillSegments(t, s, i+4)...)
		if _, err := s.Compact(s.Len()); err != nil {
			t.Fatal(err)
		}
	}
	want = append(want, fillSegments(t, s, artifacts+5)...)

	armed = true
	if _, err := s.Compact(s.Len()); !errors.Is(err, ErrCompactCrashed) {
		t.Fatalf("Compact = %v, want ErrCompactCrashed", err)
	}
	// The live sink is untouched by the aborted compaction: it
	// still appends and replays off its pre-compaction segments.
	extra := mkResults(77, 4)
	s.Append(extra)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	want = append(want, extra...)
	if got := collect(t, s, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("live replay after aborted compact diverged")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The "process" died: reopen over the torn on-disk state.
	s2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := collect(t, s2, 0)
	if len(got) != len(want) {
		t.Fatalf("recovered %d results, want %d (no loss, no duplicates)", len(got), len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered sequence diverged from original")
	}
	if _, err := os.Stat(filepath.Join(dir, compactTmpName)); !os.IsNotExist(err) {
		t.Fatalf("stray %s survived recovery", compactTmpName)
	}
	// Recovery resolved the torn state: no source segment may
	// coexist with a compacted segment covering its number, and the
	// artifacts that were already sealed are all still there.
	assertNoOverlaps(t, dir)
	wantArtifacts := artifacts
	if stage == CompactRenamed {
		wantArtifacts++ // the renamed artifact is durable; recovery completes it
	}
	gotArtifacts := 0
	for _, seg := range sealedSegments(s2) {
		if seg.compacted {
			gotArtifacts++
		}
	}
	if gotArtifacts != wantArtifacts {
		t.Fatalf("recovered log holds %d artifacts, want %d", gotArtifacts, wantArtifacts)
	}

	// Recovery is idempotent and the resolved log compacts fine.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, err := s3.Compact(s3.Len()); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, s3, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after recovery + compact diverged")
	}
}

func assertNoOverlaps(t *testing.T, dir string) {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	prevB := -1
	for _, name := range names {
		a, b, _, ok := segRange(name)
		if !ok {
			t.Fatalf("unparseable segment %s", name)
		}
		if a <= prevB {
			t.Fatalf("overlapping segments on disk: %v", names)
		}
		prevB = b
	}
}

// TestCompactTornArtifactPrefersSources: a torn compacted segment whose
// sources are all intact is a failed-compaction artifact — recovery
// must drop it and keep the sources.
func TestCompactTornArtifactPrefersSources(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	want := fillSegments(t, s, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fake a crash that left a garbage compacted segment next to the
	// intact sources 1..3.
	bad := filepath.Join(dir, compactedName(1, 3))
	if err := os.WriteFile(bad, []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := collect(t, s2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after artifact recovery diverged")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("corrupt artifact %s survived recovery", bad)
	}
}

// TestCompactCorruptWithoutSourcesRefused: once the sources are gone, a
// damaged compacted segment is unrecoverable data loss and Open must
// refuse it rather than silently replay a truncated log.
func TestCompactCorruptWithoutSourcesRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, s, 4)
	if _, err := s.Compact(s.Len()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	comp := s.segs[0].name
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the compacted segment.
	path := filepath.Join(dir, comp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a damaged compacted segment with no sources left")
	}
}

// TestCompactConcurrentReplay races appends and replays against a
// compaction; run under -race this is the reader-fence regression test.
func TestCompactConcurrentReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillSegments(t, s, 5)
	base := s.Len()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := 100; ; b++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Append(mkResults(b, 2))
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 0
			if _, err := s.Replay(0, func(wire.Result) error { n++; return nil }); err != nil {
				t.Errorf("concurrent replay: %v", err)
				return
			}
			if n < base {
				t.Errorf("concurrent replay saw %d results, want >= %d", n, base)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if _, err := s.Compact(s.Len()); err != nil {
			t.Errorf("compact %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSegRange(t *testing.T) {
	cases := []struct {
		name      string
		a, b      int
		compacted bool
		ok        bool
	}{
		{segName(7), 7, 7, false, true},
		{compactedName(1, 4), 1, 4, true, true},
		{compactedName(3, 3), 3, 3, true, true},
		{"wal-junk.seg", 0, 0, false, false},
		{fmt.Sprintf("wal-%08d-%08d.seg", 9, 2), 0, 0, false, false}, // inverted range
	}
	for _, c := range cases {
		a, b, compacted, ok := segRange(c.name)
		if a != c.a || b != c.b || compacted != c.compacted || ok != c.ok {
			t.Errorf("segRange(%q) = %d,%d,%v,%v; want %d,%d,%v,%v",
				c.name, a, b, compacted, ok, c.a, c.b, c.compacted, c.ok)
		}
	}
}
