package walsink

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"roamsim/internal/wire"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the testdata/fuzz seed corpora from walCorpus()/compactCorpus()")

// walRecord encodes one on-disk WAL record: wire MsgResults frame plus
// the big-endian CRC32 trailer.
func walRecord(batch []wire.Result) []byte {
	rec := wire.AppendResults(nil, batch)
	var crcb [crcLen]byte
	binary.BigEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(rec))
	return append(rec, crcb[:]...)
}

// walCorpus is the checked-in seed corpus for FuzzWALReplay: segment
// files exercising the recovery paths — clean logs, torn tails, flipped
// CRC and payload bytes, non-Results frames, and plain garbage.
func walCorpus() map[string][]byte {
	r1 := walRecord(mkResults(0, 2))
	r2 := walRecord(mkResults(1, 3))
	valid := append(append([]byte(nil), r1...), r2...)

	torn := append([]byte(nil), r1...)
	torn = append(torn, r2[:len(r2)/2]...) // crash mid-write of record 2

	flippedCRC := append(append([]byte(nil), r1...), r2...)
	flippedCRC[len(flippedCRC)-1] ^= 0xff // damage record 2's CRC trailer

	flippedPayload := append(append([]byte(nil), r1...), r2...)
	flippedPayload[len(r1)+wire.HeaderLen+3] ^= 0xff // damage record 2's payload

	// A MsgTasks frame with a valid CRC: right framing, wrong type.
	tasksFrame := wire.AppendTasks(nil, []wire.Task{{ID: 1, Kind: "speedtest", Config: "esim"}})
	var crcb [crcLen]byte
	binary.BigEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(tasksFrame))
	wrongType := append(append([]byte(nil), r1...), append(tasksFrame, crcb[:]...)...)

	return map[string][]byte{
		"seed-valid-two-records": valid,
		"seed-torn-tail":         torn,
		"seed-flipped-crc":       flippedCRC,
		"seed-flipped-payload":   flippedPayload,
		"seed-wrong-type-frame":  wrongType,
		"seed-garbage":           []byte("\x00\x01\x02 definitely not a WAL segment \xff\xfe"),
		"seed-empty":             {},
	}
}

// FuzzWALReplay feeds arbitrary bytes to Open as a single segment file
// and pins the recovery invariants: Open never panics and never errors
// on a lone (hence final) segment, Replay yields exactly Len() results
// and never anything past the first corruption, and a second Open of
// the recovered log agrees with the first.
func FuzzWALReplay(f *testing.F) {
	for _, name := range sortedKeys(walCorpus()) {
		f.Add(walCorpus()[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			// A single segment is by definition final: any corruption is
			// a truncatable tail, so Open must always succeed.
			t.Fatalf("Open on single segment: %v", err)
		}
		count := 0
		next, err := s.Replay(0, func(r wire.Result) error {
			count++
			return nil
		})
		if err != nil {
			t.Fatalf("Replay over recovered log: %v", err)
		}
		if count != s.Len() || next != s.Len() {
			t.Fatalf("Replay yielded %d (cursor %d), Len says %d", count, next, s.Len())
		}
		// The recovered file must end exactly at the committed size.
		_, bytes := s.Segments()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != bytes {
			t.Fatalf("file size %d != committed bytes %d after recovery", fi.Size(), bytes)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Reopen idempotence: recovery of a recovered log is a no-op.
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if s2.Len() != count {
			t.Fatalf("reopen Len = %d, first recovery yielded %d", s2.Len(), count)
		}
		s2.Close()
	})
}

// compactCorpus seeds FuzzCompactRecovery: contents for the compacted
// segment in the torn-compaction crash layout (compacted artifact and
// its intact sources coexisting on disk) — the faithful rewrite as one
// dense frame and as rewrite writes it today (flushed at the source
// boundary, one frame per source), a torn copy, a CRC flip, garbage,
// and two shapes that only matter once a second artifact sits beside
// the slot: a clean copy of that older artifact's records (valid, but
// the wrong count for the slot's sources) and a rewrite that lost its
// second source.
func compactCorpus() map[string][]byte {
	b1, b2 := mkResults(0, 2), mkResults(1, 3)
	faithful := walRecord(append(append([]wire.Result(nil), b1...), b2...))
	perSource := append(walRecord(b1), walRecord(b2)...)
	torn := append([]byte(nil), faithful[:len(faithful)/2]...)
	flipped := append([]byte(nil), faithful...)
	flipped[len(flipped)-1] ^= 0xff
	return map[string][]byte{
		"seed-faithful-rewrite":      faithful,
		"seed-per-source-frames":     perSource,
		"seed-torn-artifact":         torn,
		"seed-flipped-crc":           flipped,
		"seed-garbage":               []byte("renamed but never fsynced?! \x00\xff"),
		"seed-empty":                 {},
		"seed-older-artifact-copy":   walRecord(priorArtifact()),
		"seed-second-source-missing": walRecord(b1),
	}
}

// priorArtifact is the content of the older, source-less artifact the
// two-artifact layout of FuzzCompactRecovery puts ahead of the slot.
func priorArtifact() []wire.Result { return mkResults(9, 5) }

// FuzzCompactRecovery drops arbitrary bytes into the compacted-segment
// slot of the torn-compaction crash layout — an artifact next to its
// two intact sources and an active tail segment — and pins the
// resolution invariants: Open never panics and never errors (the intact
// sources always cover the range), Replay yields exactly Len() results,
// no overlapping segment files survive, and a second Open agrees with
// the first. Every input is resolved twice: in a log whose only
// artifact is the slot (wal-1-2 beside wal-1, wal-2, tail wal-3), and
// in a log that already holds an older, fully retired artifact ahead of
// it (wal-1-2 intact, then the slot wal-3-4 beside wal-3, wal-4, tail
// wal-5) — the steady state now that artifacts are never merged again.
func FuzzCompactRecovery(f *testing.F) {
	for _, name := range sortedKeys(compactCorpus()) {
		f.Add(compactCorpus()[name])
	}
	b1, b2, b3 := mkResults(0, 2), mkResults(1, 3), mkResults(2, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prior := range [][]wire.Result{nil, priorArtifact()} {
			dir := t.TempDir()
			base := 0
			if prior != nil {
				base = 2
				if err := os.WriteFile(filepath.Join(dir, compactedName(1, 2)), walRecord(prior), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for i, batch := range [][]wire.Result{b1, b2, b3} {
				if err := os.WriteFile(filepath.Join(dir, segName(base+i+1)), walRecord(batch), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, compactedName(base+1, base+2)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, Options{})
			if err != nil {
				// The sources tile the artifact's range, so resolution must
				// always find a consistent log.
				t.Fatalf("Open on torn-compaction layout (older artifact: %v): %v", prior != nil, err)
			}
			var got []wire.Result
			if _, err := s.Replay(0, func(r wire.Result) error { got = append(got, r); return nil }); err != nil {
				t.Fatalf("Replay over resolved log: %v", err)
			}
			count := len(got)
			if count != s.Len() {
				t.Fatalf("Replay yielded %d, Len says %d", count, s.Len())
			}
			// Whichever side won, the older artifact's and the tail
			// segment's records survive, and the slot's range holds one
			// generation, never both.
			if count < len(prior)+len(b3) || count > len(prior)+len(b1)+len(b2)+len(b3) {
				t.Fatalf("resolved log has %d results", count)
			}
			if prior != nil && !reflect.DeepEqual(got[:len(prior)], prior) {
				t.Fatalf("the older artifact's records did not survive resolution at the head of the log")
			}
			names, err := segmentNames(dir)
			if err != nil {
				t.Fatal(err)
			}
			prevB := -1
			for _, name := range names {
				if a, b, _, ok := segRange(name); ok {
					if a <= prevB {
						t.Fatalf("overlapping segments after resolution: %v", names)
					}
					prevB = b
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("second Open: %v", err)
			}
			if s2.Len() != count {
				t.Fatalf("reopen Len = %d, first resolution yielded %d", s2.Len(), count)
			}
			s2.Close()
		}
	})
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestFuzzCorpusUpToDate pins the checked-in seed corpora to
// walCorpus() and compactCorpus(). Run with -update-corpus to
// regenerate after changing the record format (which also means old
// WALs stop replaying — think twice).
func TestFuzzCorpusUpToDate(t *testing.T) {
	targets := map[string]map[string][]byte{
		"FuzzWALReplay":       walCorpus(),
		"FuzzCompactRecovery": compactCorpus(),
	}
	for target, corpus := range targets {
		dir := filepath.Join("testdata", "fuzz", target)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range corpus {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, name := range sortedKeys(corpus) {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("missing corpus file (run go test -run TestFuzzCorpusUpToDate -update-corpus ./internal/walsink): %v", err)
			}
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", corpus[name])
			if string(got) != want {
				t.Fatalf("corpus file %s/%s is stale; regenerate with -update-corpus", target, name)
			}
		}
	}
}
