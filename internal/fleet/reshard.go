package fleet

// Live resharding and WAL lifecycle for the sharded control plane.
//
// A reshard rebuilds the deployment onto a different shard count while
// the campaign keeps running: the gateway is paused (in-flight requests
// drain, new ones block), every durable result is replayed out of the
// current WAL set and re-routed into a fresh per-shard WAL set under
// the next epoch directory, fresh servers are brought up over the new
// WALs, and the gateway resumes on the new ring. MEs rediscover their
// (new) shards through the same "unknown ME" re-registration path a
// shard kill exercises. Placement is a pure function of (ME, shard
// count), so the post-reshard WAL set is byte-equivalent to what a
// campaign run at the new count would have produced — which is what
// TestReshardEquivalence pins.
//
// Epoch layout on disk, rooted at ShardedConfig.WALDir:
//
//	shard-<i>/...                 epoch 0 (the layout before resharding existed)
//	epoch-<e>/shard-<i>/...       epoch e >= 1
//	wal-manifest.json             {"epoch": e, "shards": n} — the live set
//
// The manifest is written with a tmp+rename so readers never observe a
// torn pointer; it is only advanced AFTER the new epoch's WALs are
// fully written and synced, so a crash at any moment leaves it naming
// a complete, replayable WAL set.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
	"roamsim/internal/walsink"
)

// ReshardStep schedules one live reshard: once the fleet has accepted
// AfterUploads result uploads in total (across all shards and epochs),
// the control plane is rebuilt onto Shards shards. Steps fire in
// declared order; a step whose threshold has passed while an earlier
// reshard was still in flight fires on the next accepted upload.
type ReshardStep struct {
	AfterUploads int
	Shards       int
}

// walManifest pins the live WAL epoch for a sharded deployment: which
// epoch directory holds the authoritative WAL set and how many shards
// it has. Cold recovery (ReplayLatestWALs) and manifest-aware restarts
// (NewShardedFleet over an existing WALDir) follow it.
type walManifest struct {
	Epoch  int `json:"epoch"`
	Shards int `json:"shards"`
}

func manifestPath(root string) string { return filepath.Join(root, "wal-manifest.json") }

// writeWALManifest atomically replaces the manifest: write a tmp file,
// fsync it, rename over the live name. Advancing the pointer is the
// commit point of a reshard.
func writeWALManifest(root string, m walManifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	tmp := manifestPath(root) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, manifestPath(root)); err != nil {
		return err
	}
	return fsyncDir(root)
}

// fsyncDir makes the manifest rename durable. Without it the rename —
// the commit point of the whole reshard — can itself vanish on power
// loss, resurrecting the previous epoch under shards that already
// re-homed their records.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func readWALManifest(root string) (walManifest, bool, error) {
	b, err := os.ReadFile(manifestPath(root))
	if errors.Is(err, os.ErrNotExist) {
		return walManifest{}, false, nil
	}
	if err != nil {
		return walManifest{}, false, err
	}
	var m walManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return walManifest{}, false, fmt.Errorf("fleet: wal-manifest.json: %w", err)
	}
	if m.Shards < 1 || m.Epoch < 0 {
		return walManifest{}, false, fmt.Errorf("fleet: wal-manifest.json: implausible epoch=%d shards=%d", m.Epoch, m.Shards)
	}
	return m, true, nil
}

// EpochWALDir is the WAL directory for one shard of epoch `epoch` of a
// sharded deployment rooted at root. Epoch 0 keeps the original flat
// shard-<i> layout, so pre-reshard deployments stay readable in place.
func EpochWALDir(root string, epoch, i int) string {
	if epoch == 0 {
		return ShardWALDir(root, i)
	}
	return filepath.Join(root, fmt.Sprintf("epoch-%d", epoch), fmt.Sprintf("shard-%d", i))
}

// LatestWALSet resolves which WAL set is live under root: the
// manifest's (epoch, shards) when one exists, else the pre-manifest
// epoch-0 layout with as many shard-<i> directories as are present.
func LatestWALSet(root string) (epoch, shards int, err error) {
	m, ok, err := readWALManifest(root)
	if err != nil {
		return 0, 0, err
	}
	if ok {
		return m.Epoch, m.Shards, nil
	}
	n := 0
	for {
		if _, err := os.Stat(ShardWALDir(root, n)); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("fleet: no wal-manifest.json and no shard-0 WAL under %s", root)
	}
	return 0, n, nil
}

// ReplayLatestWALs reopens the live WAL set under root — following the
// manifest across reshard epochs — and streams every durable result
// back in shard order: the cold post-crash recovery read for a
// deployment that may have resharded and compacted underway.
func ReplayLatestWALs(root string) ([]amigo.Result, error) {
	epoch, shards, err := LatestWALSet(root)
	if err != nil {
		return nil, err
	}
	return replayEpoch(root, epoch, shards)
}

// replayEpoch opens every shard WAL of one epoch read-only in spirit,
// streams their full replays into one slice sized up front from the
// opened logs' lengths, and closes them.
func replayEpoch(root string, epoch, shards int) ([]amigo.Result, error) {
	wals := make([]*walsink.Sink, 0, shards)
	defer func() {
		for _, wal := range wals {
			wal.Close() // nothing was appended, so there is nothing to flush
		}
	}()
	total := 0
	for i := 0; i < shards; i++ {
		wal, err := walsink.Open(EpochWALDir(root, epoch, i), walsink.Options{})
		if err != nil {
			return nil, err
		}
		wals = append(wals, wal)
		total += wal.Len()
	}
	out := make([]amigo.Result, 0, total)
	for _, wal := range wals {
		if _, err := wal.Replay(0, func(r amigo.Result) error {
			out = append(out, r)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// walLabels are the obs labels for one shard WAL. Epoch 0 keeps the
// bare shard=<i> label set earlier releases registered; later epochs
// add epoch=<e> so a resharded deployment's fresh WALs never collide
// with the retired epoch's registered metrics.
func walLabels(i, epoch int) []obs.Label {
	ls := []obs.Label{obs.L("shard", strconv.Itoa(i))}
	if epoch > 0 {
		ls = append(ls, obs.L("epoch", strconv.Itoa(epoch)))
	}
	return ls
}

// compactCrashFn builds shard i's compaction crash hook: walsink calls
// it at each crash point a Compact exposes, and a true return aborts
// the compaction right there, modeling the process dying mid-compact.
// The deterministic ForceCompactKill one-shot fires at the renamed
// point — after the compacted segment is committed in place, before
// the source segments it covers are removed — so recovery has to
// arbitrate between a complete artifact and its still-present sources.
// The chaos injector draws the rest from its seeded (shard, point)
// stream under the fleet-wide budget, so chaos runs also hit the
// staged-tmp point.
func (f *ShardedFleet) compactCrashFn(i int) func(string) bool {
	return func(stage string) bool {
		f.mu.Lock()
		f.compactPoints[i]++
		n := f.compactPoints[i]
		force := f.cfg.ForceCompactKill && f.cfg.ForceCompactKillShard == i &&
			!f.compactForced && stage == walsink.CompactRenamed
		if force {
			f.compactForced = true
		}
		f.mu.Unlock()
		if force {
			return true
		}
		return f.cfg.Chaos != nil && f.cfg.Chaos.MaybeKillCompaction(i, n)
	}
}

// maybeCompact compacts shard i's WAL once CompactAfter plain sealed
// segments have accumulated since its last compaction artifact (counting
// every segment would, with several artifacts alive, fire on every
// upload). The check runs on every accepted upload and allocates
// nothing. It runs synchronously inside the upload request
// on purpose: the gateway's Pause() drains in-flight requests, so a
// reshard can never swap the WAL set out from under a running
// compaction. A compaction that dies at an injected crash point
// (ErrCompactCrashed) kills the shard — same-process-death semantics as
// a shard kill, over the SAME sink: the live walsink already holds
// every acked append, and only a cold reopen ever re-resolves the
// half-finished artifacts it left on disk.
func (f *ShardedFleet) maybeCompact(i int, wal *walsink.Sink) {
	if f.cfg.CompactAfter <= 0 || wal == nil {
		return
	}
	if wal.SealedSinceCompact() < f.cfg.CompactAfter {
		return
	}
	if _, err := wal.Compact(wal.Len()); err != nil {
		if errors.Is(err, walsink.ErrCompactCrashed) {
			f.mu.Lock()
			f.compactKills++
			f.mu.Unlock()
			f.KillShard(i)
			return
		}
		// A failed compaction loses nothing — the source segments stay
		// authoritative. Record the first error and march on.
		f.mu.Lock()
		if f.compactErr == nil {
			f.compactErr = err
		}
		f.mu.Unlock()
	}
}

// maybeReshard fires the next scheduled reshard step once the
// fleet-wide accepted-upload count crosses its threshold. The reshard
// itself runs on its own goroutine: Pause() blocks until every
// in-flight request drains — including the upload that tripped the
// threshold — so firing it synchronously from the request path would
// deadlock the gateway on itself.
func (f *ShardedFleet) maybeReshard(total int) {
	f.mu.Lock()
	fire := !f.resharding && f.nextReshard < len(f.cfg.Reshards) &&
		total >= f.cfg.Reshards[f.nextReshard].AfterUploads
	var step ReshardStep
	if fire {
		step = f.cfg.Reshards[f.nextReshard]
		f.nextReshard++
		f.resharding = true
		f.wg.Add(1)
	}
	f.mu.Unlock()
	if fire {
		go f.doReshard(step.Shards)
	}
}

// doReshard executes one live reshard: quiesce, copy, commit, swap.
func (f *ShardedFleet) doReshard(n int) {
	defer f.wg.Done()
	f.gw.Pause()
	defer func() {
		f.mu.Lock()
		f.resharding = false
		f.mu.Unlock()
	}()
	// On any failure the deployment stays on its current epoch: record
	// the error and resume the unchanged topology — a failed reshard
	// must degrade to "nothing happened", never to a dead gateway.
	fail := func(err error) {
		f.mu.Lock()
		if f.reshardErr == nil {
			f.reshardErr = err
		}
		f.mu.Unlock()
		f.gw.Resume(f.gw.Backends())
	}

	f.mu.Lock()
	src := append([]*walsink.Sink(nil), f.wals...)
	epoch := f.epoch + 1
	f.mu.Unlock()

	closeAll := func(ws []*walsink.Sink) {
		for _, w := range ws {
			if w != nil {
				w.Close()
			}
		}
	}
	dst := make([]*walsink.Sink, n)
	for i := range dst {
		w, err := walsink.Open(EpochWALDir(f.cfg.WALDir, epoch, i), walsink.Options{
			SegmentBytes: f.cfg.SegmentBytes,
			SyncBytes:    f.cfg.SyncBytes,
			Obs:          f.cfg.Obs,
			Labels:       walLabels(i, epoch),
			CompactCrash: f.compactCrashFn(i),
		})
		if err != nil {
			closeAll(dst)
			fail(err)
			return
		}
		dst[i] = w
	}
	st, err := shard.Reshard(src, dst)
	if err != nil {
		closeAll(dst)
		fail(err)
		return
	}
	// Commit: the new epoch's WALs are complete and synced; advance the
	// manifest pointer. A crash before this line recovers onto the old
	// epoch, after it onto the new — both complete.
	if err := writeWALManifest(f.cfg.WALDir, walManifest{Epoch: epoch, Shards: n}); err != nil {
		closeAll(dst)
		fail(err)
		return
	}

	servers := make([]*amigo.Server, n)
	sinks := make([]amigo.Sink, n)
	backends := make([]http.Handler, n)
	for i := range servers {
		servers[i] = amigo.NewServer(nil, amigo.WithSink(dst[i]))
		sinks[i] = dst[i]
		backends[i] = f.backend(i, servers[i])
	}
	f.mu.Lock()
	old := f.wals
	f.servers, f.sinks, f.wals = servers, sinks, dst
	f.uploads = make([]int, n)
	f.epoch = epoch
	f.reshards++
	f.lastReshard = st
	f.mu.Unlock()
	f.gw.Resume(backends)
	// The old epoch's sinks are unreachable now — Pause drained every
	// request that could have touched them.
	closeAll(old)

	f.cfg.Obs.Counter("fleet_reshards_total").Inc()
	f.cfg.Obs.Counter("fleet_reshard_records_total").Add(int64(st.Records))
	f.cfg.Obs.Counter("fleet_reshard_moved_results_total").Add(int64(st.Moved))
}
