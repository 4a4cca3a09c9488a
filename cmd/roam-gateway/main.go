// Command roam-gateway self-hosts a horizontally sharded AmiGo control
// plane: N independent control servers behind a consistent-hash gateway
// (see internal/shard), each optionally backed by a durable write-ahead
// result log (see internal/walsink). MEs — real amigo-me processes or
// the roam-fleet driver with -server — speak to it exactly as they
// would to a single amigo-server; placement is a pure function of the
// ME name, so which shard serves a device is a deployment detail that
// never changes the dataset.
//
// Usage:
//
//	roam-gateway [-listen ADDR] [-shards N] [-wal-dir DIR]
//	             [-compact-after N] [-metrics]
//
// Admin reads (/admin/results, /admin/mes) are merged across shards by
// the gateway; /admin/schedule routes to the owning shard. With
// -metrics the gateway serves its per-shard routing counters and every
// WAL's durability metrics at /admin/metrics. With -compact-after N a
// shard's WAL is compacted whenever N plain sealed segments have
// accumulated since its last compaction artifact: they are merged into
// one new canonical artifact and retired. Artifacts are never merged
// again, so each byte is rewritten at most once and a shard keeps about
// log bytes / (N x segment bytes) artifacts, at most N plain sealed
// segments and the active one.
//
// On SIGINT/SIGTERM the gateway shuts down cleanly, syncing and closing
// every shard WAL; restarting over the same -wal-dir replays the logs
// and carries on with zero lost results. The restart follows
// wal-manifest.json, so a deployment that live-resharded (see
// internal/fleet ReshardStep) reopens its latest epoch's WAL set — the
// manifest's shard count wins over -shards.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"roamsim/internal/fleet"
	"roamsim/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8431", "listen address")
	shards := flag.Int("shards", 4, "control-plane shard count")
	walDir := flag.String("wal-dir", "", "durable WAL directory; every shard logs results under <dir>/shard-<i> (empty = in-memory sinks)")
	compactAfter := flag.Int("compact-after", 0, "compact a shard's WAL when N plain sealed segments have accumulated since its last compaction artifact (0 = never); artifacts are never re-merged, so a shard keeps about log bytes / (N x segment bytes) of them; requires -wal-dir")
	metrics := flag.Bool("metrics", false, "instrument the gateway and WALs; exposition at /admin/metrics")
	flag.Parse()

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	f, err := fleet.NewShardedFleet(fleet.ShardedConfig{
		Shards:       *shards,
		WALDir:       *walDir,
		CompactAfter: *compactAfter,
		Obs:          reg,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{
		Handler:           f.Handler(),
		ReadTimeout:       15 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// The manifest may have overridden -shards (restart after a live
	// reshard); report what is actually serving.
	fmt.Printf("roam-gateway: %d shards (WAL epoch %d) at http://%s", f.Shards(), f.Epoch(), ln.Addr())
	if *walDir != "" {
		records := 0
		for i := 0; i < f.Shards(); i++ {
			records += f.WAL(i).Len()
		}
		fmt.Printf(", WALs under %s (%d results replayed)", *walDir, records)
	}
	fmt.Println()

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("roam-gateway: %s, shutting down\n", s)
		// Drain in-flight requests so an upload already appended to the
		// WAL still gets its 2xx; only force-close if draining stalls.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		cancel()
	case err := <-done:
		if err != http.ErrServerClosed {
			fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roam-gateway:", err)
	os.Exit(1)
}
