package shard

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"roamsim/internal/walsink"
	"roamsim/internal/wire"
)

// wres builds one deterministic result for me with the given sequence
// number.
func wres(me string, seq int) wire.Result {
	return wire.Result{
		TaskID:   seq,
		ME:       me,
		Kind:     "speedtest",
		Config:   "esim",
		OK:       true,
		Payload:  []byte(fmt.Sprintf(`{"seq":%d}`, seq)),
		Uploaded: time.Unix(0, int64(seq)).UTC(),
	}
}

// openWALs opens n WALs under root/shard-<i>.
func openWALs(t *testing.T, root string, n int) []*walsink.Sink {
	t.Helper()
	out := make([]*walsink.Sink, n)
	for i := range out {
		w, err := walsink.Open(filepath.Join(root, fmt.Sprintf("shard-%d", i)), walsink.Options{SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		out[i] = w
	}
	return out
}

func TestReshardReroutesEveryRecord(t *testing.T) {
	mes := []string{"PAK-00", "PAK-01", "GEO-00", "USA-00", "FRA-00", "JPN-00", "IND-00", "BRA-00"}
	srcRing := NewRing(2)

	src := openWALs(t, t.TempDir(), 2)
	perME := map[string][]wire.Result{}
	total := 0
	for round := 1; round <= 5; round++ {
		for _, me := range mes {
			r := wres(me, round)
			src[srcRing.Shard(me)].Append([]wire.Result{r})
			perME[me] = append(perME[me], r)
			total++
		}
	}

	dst := openWALs(t, t.TempDir(), 3)
	st, err := Reshard(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != total {
		t.Fatalf("Records = %d, want %d — reshard must replay every record", st.Records, total)
	}
	if st.Moved == 0 || st.Moved >= total {
		t.Fatalf("Moved = %d of %d; consistent hashing should move some, not all", st.Moved, total)
	}

	// Every record must land on the destination shard the new ring
	// assigns its ME, with per-ME order preserved.
	dstRing := NewRing(3)
	got := map[string][]wire.Result{}
	sum := 0
	for i, d := range dst {
		if _, err := d.Replay(0, func(r wire.Result) error {
			if want := dstRing.Shard(r.ME); want != i {
				t.Fatalf("result for %s landed on shard %d, ring places it on %d", r.ME, i, want)
			}
			cp := r
			cp.Payload = append([]byte(nil), r.Payload...)
			got[r.ME] = append(got[r.ME], cp)
			sum++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sum != total {
		t.Fatalf("destinations hold %d records, want %d", sum, total)
	}
	for me, want := range perME {
		g := got[me]
		if len(g) != len(want) {
			t.Fatalf("%s: %d records after reshard, want %d", me, len(g), len(want))
		}
		for i := range g {
			if g[i].TaskID != want[i].TaskID || string(g[i].Payload) != string(want[i].Payload) {
				t.Fatalf("%s record %d reordered or altered: got %+v want %+v", me, i, g[i], want[i])
			}
		}
	}

	// Resharding back to the source count restores the original
	// per-shard placement.
	back := openWALs(t, t.TempDir(), 2)
	if _, err := Reshard(dst, back); err != nil {
		t.Fatal(err)
	}
	for i, b := range back {
		if _, err := b.Replay(0, func(r wire.Result) error {
			if want := srcRing.Shard(r.ME); want != i {
				t.Fatalf("round-trip: result for %s on shard %d, want %d", r.ME, i, want)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRingBalanceSequentialNames is the regression for the ring-hash
// dispersion bug: raw FNV-1a clustered sequentially-named MEs (and the
// vnode points themselves) into a sliver of the keyspace, piling entire
// fleets onto shard 0. Every shard must own a fair slice of a
// sequential namespace.
func TestRingBalanceSequentialNames(t *testing.T) {
	const n = 2000
	for _, shards := range []int{2, 4, 8} {
		r := NewRing(shards)
		counts := make([]int, shards)
		for i := 0; i < n; i++ {
			counts[r.Shard(fmt.Sprintf("me-%04d", i))]++
		}
		avg := n / shards
		for s, c := range counts {
			if c < avg/2 || c > avg*2 {
				t.Fatalf("%d shards: shard %d owns %d of %d MEs (avg %d) — ring imbalance", shards, s, c, n, avg)
			}
		}
	}
}
