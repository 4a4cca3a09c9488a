package fleet

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/walsink"
)

// TestWALSetNeedsItsManifest: the manifest is a WAL set's only index. A
// root that holds a shard-0 WAL with a result in it but no
// wal-manifest.json is no WAL set: resolving it and replaying it both
// fail, naming the manifest.
func TestWALSetNeedsItsManifest(t *testing.T) {
	root := t.TempDir()
	wal, err := walsink.Open(EpochWALDir(root, 0, 0), walsink.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wal.Append([]amigo.Result{mkDNSResult("me-PAK-0", 1, "example.org")})
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if epoch, shards, err := LatestWALSet(root); err == nil || !strings.Contains(err.Error(), "wal-manifest.json") {
		t.Errorf("LatestWALSet without a manifest: epoch %d, %d shards, %v; want an error naming wal-manifest.json", epoch, shards, err)
	}
	if rs, err := ReplayLatestWALs(root); err == nil || !strings.Contains(err.Error(), "wal-manifest.json") {
		t.Errorf("ReplayLatestWALs without a manifest: %d results, %v; want an error naming wal-manifest.json", len(rs), err)
	}
}

// TestMaybeCompactAllocFreeWhenNothingIsDue: the compaction check runs
// inside every accepted upload, so while nothing is due — here with two
// artifacts already alive and one plain segment short of the threshold —
// it must cost no allocation (and so parse no segment name).
func TestMaybeCompactAllocFreeWhenNothingIsDue(t *testing.T) {
	const compactAfter = 3
	f, err := NewShardedFleet(ShardedConfig{Shards: 1, WALDir: t.TempDir(), SegmentBytes: 512, CompactAfter: compactAfter})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	wal := f.WAL(0)
	batch := 0
	fill := func(sealed int) {
		for wal.SealedSinceCompact() < sealed {
			wal.Append([]amigo.Result{mkDNSResult("me-PAK-0", batch, "example.org")})
			batch++
		}
	}
	for artifacts := 1; artifacts <= 2; artifacts++ {
		fill(compactAfter)
		f.maybeCompact(0, wal)
		if n, _ := wal.Segments(); n != artifacts+1 {
			t.Fatalf("after compaction %d: %d segments, want %d artifacts + active", artifacts, n, artifacts)
		}
	}
	fill(compactAfter - 1)
	before := wal.Retired()
	if a := testing.AllocsPerRun(200, func() { f.maybeCompact(0, wal) }); a != 0 {
		t.Fatalf("maybeCompact with nothing due allocates %.0f times per upload", a)
	}
	if wal.Retired() != before {
		t.Fatal("maybeCompact compacted below the CompactAfter threshold")
	}
	if err := f.CompactErr(); err != nil {
		t.Fatal(err)
	}
}

// TestNextReshardFiresOnceTheGatewayResumes: a reshard step that comes
// due while the previous reshard finishes fires from the next upload the
// new topology accepts. The previous reshard still closes its old WALs
// after the gateway resumes, and a campaign's last uploads can all land in
// that window; if they could not fire the step, it would never run.
func TestNextReshardFiresOnceTheGatewayResumes(t *testing.T) {
	f, err := NewShardedFleet(ShardedConfig{Shards: 1, WALDir: t.TempDir(),
		Reshards: []ReshardStep{{AfterUploads: 1, Shards: 2}, {AfterUploads: 2, Shards: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.WAL(0).Append([]amigo.Result{mkDNSResult("me-PAK-0", 1, "example.org")})
	f.maybeReshard(1)
	for n, _ := f.Reshards(); n == 0; n, _ = f.Reshards() {
		runtime.Gosched()
	}
	f.maybeReshard(2)
	f.WaitIdle()
	if n, _ := f.Reshards(); n != 2 || f.Shards() != 3 || f.ReshardErr() != nil {
		t.Fatalf("%d reshards to %d shards (%v); the second step did not fire", n, f.Shards(), f.ReshardErr())
	}
}

// TestHostChoosesTopology: Host serves one server unless the config asks
// for something only shards do, a kill drawn by chaos included, and
// under chaos wraps either topology in the injector's storm middleware.
func TestHostChoosesTopology(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     ShardedConfig
		sharded bool
	}{
		{"zero", ShardedConfig{}, false},
		{"one shard", ShardedConfig{Shards: 1}, false},
		{"chaos without kills", ShardedConfig{Chaos: chaos.NewInjector(1, chaos.Light())}, false},
		{"two shards", ShardedConfig{Shards: 2}, true},
		{"wal", ShardedConfig{WALDir: t.TempDir()}, true},
		{"forced kill", ShardedConfig{ForceKill: true}, true},
		{"forced compaction kill", ShardedConfig{ForceCompactKill: true}, true},
		{"compaction", ShardedConfig{WALDir: t.TempDir(), CompactAfter: 2}, true},
		{"reshard", ShardedConfig{WALDir: t.TempDir(), Reshards: []ReshardStep{{AfterUploads: 1, Shards: 2}}}, true},
		{"chaos shard kill", ShardedConfig{Chaos: chaos.NewInjector(1, chaos.Config{ShardKill: 0.5})}, true},
		{"chaos compaction kill", ShardedConfig{Chaos: chaos.NewInjector(1, chaos.Config{CompactKill: 0.5})}, true},
	} {
		h, f, srv, err := Host(tc.cfg)
		if err != nil || h == nil {
			t.Fatalf("%s: handler %v, %v", tc.name, h, err)
		}
		if tc.cfg.Chaos != nil {
			// Every request stormed: an ME's lease is a 503 before the
			// plane sees it.
			storms := tc.cfg.Chaos.Config()
			storms.Err5xx = 1
			cfg := tc.cfg
			cfg.Chaos = chaos.NewInjector(1, storms)
			sh, sf, _, err := Host(cfg)
			if err != nil || (sf != nil) != tc.sharded {
				t.Fatalf("%s: stormed plane sharded %v, %v", tc.name, sf != nil, err)
			}
			req, rec := httptest.NewRequest(http.MethodPost, "/v3/lease", nil), httptest.NewRecorder()
			req.Header.Set(chaos.MEHeader, "me-PAK")
			if sh.ServeHTTP(rec, req); rec.Code != http.StatusServiceUnavailable || len(cfg.Chaos.Events()) != 1 {
				t.Errorf("%s: a stormed lease got HTTP %d, %d faults recorded; want a 503 from the middleware", tc.name, rec.Code, len(cfg.Chaos.Events()))
			}
		}
		if (f != nil) != tc.sharded || (srv == nil) != tc.sharded {
			t.Errorf("%s: sharded %v, single server %v; want sharded %v", tc.name, f != nil, srv != nil, tc.sharded)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, _, err := Host(ShardedConfig{CompactAfter: 2}); err == nil {
		t.Error("compaction without a WAL was accepted")
	}
}
