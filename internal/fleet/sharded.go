package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
	"roamsim/internal/walsink"
)

// ShardedConfig configures a self-hosted sharded control plane.
type ShardedConfig struct {
	// Shards is the shard count (default 1).
	Shards int
	// WALDir, when set, gives every shard a durable walsink WAL under
	// <WALDir>/shard-<i>; empty means in-memory sinks (no durability,
	// no shard-kill survival).
	WALDir string
	// SegmentBytes is the per-shard WAL rotation size (0 = walsink
	// default). Tests set a tiny one to force rotation.
	SegmentBytes int
	// Chaos, when set, draws the shard-kill schedule: after each
	// accepted upload, chaos.MaybeKillShard decides whether that shard
	// dies. Host also wraps the plane it returns, one server or the
	// gateway, in the injector's storm Middleware.
	Chaos *chaos.Injector
	// ForceKill kills shard ForceKillShard after its first accepted
	// upload — the deterministic one-shot used by tests and the
	// -kill-shard flag, independent of any chaos schedule.
	ForceKill      bool
	ForceKillShard int
	// Reshards schedules live re-sharding mid-campaign (see
	// ReshardStep); requires WALDir — resharding replays the durable
	// log, so there is nothing to reshard from with in-memory sinks.
	Reshards []ReshardStep
	// CompactAfter, when > 0, compacts a shard's WAL whenever
	// CompactAfter plain sealed segments have accumulated since its last
	// compaction artifact, merging them into one new canonical artifact
	// and retiring the sources. Artifacts are never merged again, so
	// every appended byte is rewritten at most once and a shard holds
	// about log bytes ÷ (CompactAfter × SegmentBytes) artifacts, at most
	// CompactAfter plain sealed segments and the active one. Requires
	// WALDir.
	CompactAfter int
	// ForceCompactKill kills shard ForceCompactKillShard at its first
	// compaction's post-rename crash point (compacted segment committed,
	// covered sources not yet removed) — the deterministic one-shot
	// analog of ForceKill for torn compactions, independent of any
	// chaos schedule.
	ForceCompactKill      bool
	ForceCompactKillShard int
	// Obs, when set, receives the gateway's routing counters and every
	// shard WAL's metrics (labeled shard=<i>), and backs the gateway's
	// /admin/metrics route.
	Obs *obs.Registry
}

// ShardedFleet self-hosts a horizontally sharded control plane: N
// amigo.Servers (each with its own result sink, optionally a durable
// WAL) behind a consistent-hash shard.Gateway. MEs talk to Handler()
// exactly as they would to one server; the harness also injects the
// shard-kill fault — dropping a shard's server wholesale and bringing
// up a fresh one over the dead shard's WAL — which is what the
// crash-recovery tests drive.
type ShardedFleet struct {
	cfg ShardedConfig
	gw  *shard.Gateway

	mu     sync.Mutex
	shards []shardRec // one per shard of the live epoch; guarded by mu
	kills  int        // shard kills performed; guarded by mu
	forced bool       // the ForceKill one-shot has fired; guarded by mu

	epoch         int                // live WAL epoch, bumped per reshard; guarded by mu
	total         int                // accepted uploads fleet-wide, across epochs; guarded by mu
	nextReshard   int                // next cfg.Reshards step to fire; guarded by mu
	resharding    bool               // a reshard has fired and not yet installed its topology; guarded by mu
	reshards      int                // reshards completed; guarded by mu
	lastReshard   shard.ReshardStats // stats of the latest reshard; guarded by mu
	reshardErr    error              // first reshard failure; guarded by mu
	compactPoints map[int]int        // compaction crash points seen per shard; guarded by mu
	compactForced bool               // the ForceCompactKill one-shot has fired; guarded by mu
	compactKills  int                // compact-kills performed; guarded by mu
	compactErr    error              // first non-crash compaction failure; guarded by mu
	wg            sync.WaitGroup     // in-flight reshard goroutine
}

// shardRec is one shard of the live epoch: its current server, the sink
// that outlives the server's kills (its WAL, or memory without a
// WALDir), and the uploads it accepted this epoch.
type shardRec struct {
	srv     *amigo.Server
	sink    amigo.Sink
	uploads int
}

// wal is the shard's WAL, nil for a memory sink.
func (s shardRec) wal() *walsink.Sink {
	wal, _ := s.sink.(*walsink.Sink)
	return wal
}

// Host builds the control plane cfg asks for, the one place the topology
// is chosen: a single amigo.Server behind shard.Mount, instrumented into
// cfg.Obs, unless cfg needs what only a ShardedFleet does — more than
// one shard, a WAL, compaction, a reshard, or a shard or compaction kill
// (forced or drawn by chaos). Exactly one of the fleet and the single
// server is non-nil. cfg.Chaos, when set, also wraps the handler in its
// storm middleware (admin traffic carries no chaos header and passes
// through).
func Host(cfg ShardedConfig) (h http.Handler, f *ShardedFleet, srv *amigo.Server, err error) {
	kills := cfg.Chaos != nil && (cfg.Chaos.Config().ShardKill > 0 || cfg.Chaos.Config().CompactKill > 0)
	if cfg.Shards <= 1 && cfg.WALDir == "" && !cfg.ForceKill && !cfg.ForceCompactKill &&
		cfg.CompactAfter <= 0 && len(cfg.Reshards) == 0 && !kills {
		srv = amigo.NewServer(nil, amigo.WithObs(cfg.Obs))
		h = shard.Mount(srv.Handler(), srv.AdminHandler())
	} else if f, err = NewShardedFleet(cfg); err != nil {
		return nil, nil, nil, err
	} else {
		h = f.Handler()
	}
	if cfg.Chaos != nil {
		h = cfg.Chaos.Middleware(h)
	}
	return h, f, srv, nil
}

// NewShardedFleet builds the shard servers, their sinks, and the
// gateway.
func NewShardedFleet(cfg ShardedConfig) (*ShardedFleet, error) {
	n := max(cfg.Shards, 1)
	epoch := 0
	if cfg.WALDir == "" {
		if len(cfg.Reshards) > 0 {
			return nil, fmt.Errorf("fleet: Reshards requires WALDir — resharding replays the durable log")
		}
		if cfg.CompactAfter > 0 {
			return nil, fmt.Errorf("fleet: CompactAfter requires WALDir")
		}
	} else {
		// Manifest-aware restart: an existing deployment may have
		// resharded, so the manifest — not the config — says which epoch
		// and shard count are live. A fresh directory gets the epoch-0
		// manifest written up front so cold recovery always has it.
		m, err := readWALManifest(cfg.WALDir)
		if err == nil {
			epoch, n = m.Epoch, m.Shards
		} else if errors.Is(err, os.ErrNotExist) {
			err = writeWALManifest(cfg.WALDir, walManifest{Epoch: 0, Shards: n})
		}
		if err != nil {
			return nil, err
		}
	}
	for _, step := range cfg.Reshards {
		if step.Shards < 1 {
			return nil, fmt.Errorf("fleet: reshard step to %d shards", step.Shards)
		}
	}
	f := &ShardedFleet{cfg: cfg, epoch: epoch, compactPoints: map[int]int{}}
	shards, backends, err := f.openShards(epoch, n)
	if err != nil {
		return nil, err
	}
	f.shards = shards
	f.gw = shard.NewGateway(backends, shard.Options{Obs: cfg.Obs})
	return f, nil
}

// openShards opens epoch's n shard sinks — WALs under WALDir, or memory
// sinks without one — and starts a server over each: the one way an
// epoch's shard set is opened, at construction and on a reshard. A WAL
// that fails to open closes the ones already opened.
func (f *ShardedFleet) openShards(epoch, n int) ([]shardRec, []http.Handler, error) {
	shards, backends := make([]shardRec, n), make([]http.Handler, n)
	for i := range shards {
		if f.cfg.WALDir == "" {
			shards[i].sink = amigo.NewMemorySink()
		} else {
			wal, err := walsink.Open(EpochWALDir(f.cfg.WALDir, epoch, i), walsink.Options{SegmentBytes: f.cfg.SegmentBytes,
				Obs: f.cfg.Obs, Labels: walLabels(i, epoch), CompactCrash: f.compactCrashFn(i)})
			if err != nil {
				closeWALs(shards[:i])
				return nil, nil, err
			}
			shards[i].sink = wal
		}
		shards[i].srv, backends[i] = f.startShard(i, shards[i].sink)
	}
	return shards, backends, nil
}

// walsOf returns the shards' WALs, nil for memory sinks.
func walsOf(shards []shardRec) []*walsink.Sink {
	wals := make([]*walsink.Sink, len(shards))
	for i, s := range shards {
		wals[i] = s.wal()
	}
	return wals
}

// closeWALs syncs and closes the shards' WALs. The first error wins.
func closeWALs(shards []shardRec) error {
	var first error
	for _, s := range shards {
		if wal := s.wal(); wal != nil {
			if err := wal.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// startShard brings up a fresh server over sink as shard i, and the
// gateway backend that serves it: the one way a shard server is built,
// at construction, after a kill and on a reshard. The backend runs
// afterUpload once an upload has succeeded, which is the interesting
// moment for a kill — the ME believes its results are safe, and only
// the WAL still has them. Shard servers carry no registry of their own:
// the gateway and the WALs own the sharded deployment's metrics, and a
// replacement server after a kill must not re-register colliding gauges.
func (f *ShardedFleet) startShard(i int, sink amigo.Sink) (*amigo.Server, http.Handler) {
	srv := amigo.NewServer(nil, amigo.WithSink(sink))
	mounted := shard.Mount(srv.Handler(), srv.AdminHandler())
	return srv, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v3/results" {
			mounted.ServeHTTP(w, r)
			return
		}
		sw := &statusRecorder{ResponseWriter: w}
		mounted.ServeHTTP(sw, r)
		if sw.code < 300 {
			f.afterUpload(i)
		}
	})
}

// Handler is the fleet-facing control plane: the gateway, unwrapped
// (Host adds the chaos middleware).
func (f *ShardedFleet) Handler() http.Handler { return f.gw }

// Gateway exposes the underlying gateway.
func (f *ShardedFleet) Gateway() *shard.Gateway { return f.gw }

// Ring exposes shard placement, for benchmarks that schedule directly
// against shard servers.
func (f *ShardedFleet) Ring() *shard.Ring { return f.gw.Ring() }

// Server returns shard i's current server (the replacement, after a
// kill).
func (f *ShardedFleet) Server(i int) *amigo.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[i].srv
}

// WAL returns shard i's WAL sink, or nil for in-memory deployments.
func (f *ShardedFleet) WAL(i int) *walsink.Sink {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards[i].wal()
}

// Kills reports how many shard kills have been performed.
func (f *ShardedFleet) Kills() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kills
}

// Shards reports the current shard count — the original config's until
// a reshard changes it.
func (f *ShardedFleet) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.shards)
}

// Epoch reports the live WAL epoch (0 until the first reshard).
func (f *ShardedFleet) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Reshards reports how many reshards completed and the stats of the
// latest one.
func (f *ShardedFleet) Reshards() (int, shard.ReshardStats) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reshards, f.lastReshard
}

// ReshardErr returns the first reshard failure, if any. A failed
// reshard leaves the deployment on its previous epoch, still serving.
func (f *ShardedFleet) ReshardErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reshardErr
}

// CompactKills reports how many shards died at an injected compaction
// crash point.
func (f *ShardedFleet) CompactKills() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactKills
}

// CompactErr returns the first non-crash compaction failure, if any.
func (f *ShardedFleet) CompactErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.compactErr
}

// WaitIdle blocks until no reshard is in flight. Campaign harnesses
// call it before asserting on WAL or topology state: the last upload
// of a run may have fired a reshard that is still swapping.
func (f *ShardedFleet) WaitIdle() { f.wg.Wait() }

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.ResponseWriter.Write(p)
}

// afterUpload counts shard i's accepted upload and runs the
// upload-triggered lifecycle machinery in a fixed order: maybe the
// shard dies (ForceKill one-shot or the chaos schedule), maybe its WAL
// compacts (CompactAfter threshold — which may itself die at an
// injected crash point and kill the shard), and maybe the next
// scheduled reshard fires (on its own goroutine; see maybeReshard).
func (f *ShardedFleet) afterUpload(i int) {
	f.mu.Lock()
	f.shards[i].uploads++
	f.total++
	n := f.shards[i].uploads
	total := f.total
	wal := f.shards[i].wal()
	force := f.cfg.ForceKill && f.cfg.ForceKillShard == i && !f.forced
	if force {
		f.forced = true
	}
	f.mu.Unlock()
	if force || (f.cfg.Chaos != nil && f.cfg.Chaos.MaybeKillShard(i, n)) {
		f.killShard(i, false)
	}
	f.maybeCompact(i, wal)
	f.maybeReshard(total)
}

// killShard simulates shard i's process dying, at a compaction's crash
// point or not: its server — registry, task queues, ack cursors,
// idempotency keys, spool — is dropped wholesale and a fresh server is
// brought up over the same sink. For a WAL-backed shard that means every
// result drained to disk survives; everything in memory is gone, and MEs
// rediscover the shard via "unknown ME" responses and are scheduled anew
// (see Driver.runME).
//
// In-flight requests against the old server finish against it and
// drain into the shared sink; new requests route to the replacement.
func (f *ShardedFleet) killShard(i int, compaction bool) {
	f.mu.Lock()
	srv, backend := f.startShard(i, f.shards[i].sink)
	f.shards[i].srv = srv
	f.kills++
	if compaction {
		f.compactKills++
	}
	f.mu.Unlock()
	f.gw.SetBackend(i, backend)
}

// Close waits out any in-flight reshard, then syncs and closes every
// WAL. The first error wins; in-memory deployments never error.
func (f *ShardedFleet) Close() error {
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return closeWALs(f.shards)
}
