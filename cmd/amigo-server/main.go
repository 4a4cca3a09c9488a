// Command amigo-server runs the AmiGo control server: the REST endpoint
// measurement endpoints (amigo-me, roam-fleet) lease tasks from and
// upload results to. An ME speaks two routes, the v3 binary-frame batch
// lease and upload, the only way tasks, results and vitals travel (see
// internal/amigo and internal/wire for the wire formats); it does not
// register — scheduling work for an ME is what makes the server know it.
//
// Usage:
//
//	amigo-server [-addr :8080] [-pprof] [-shards N] [-wal-dir DIR] [-compact-after N]
//
// Every request body is v3 frames sent as application/vnd.amigo.v3
// (anything else is 415). Schedule tasks by POSTing one or more
// MsgSchedule frames, one per ME (roam-fleet sends 64 at a time), to
// /admin/schedule; the answer is one MsgTasks frame per frame, in body
// order, of the queued tasks under their IDs. A body is applied all or
// nothing — one bad frame anywhere schedules none — and a sharded plane
// splits it by shard. testdata holds three such frames, which
// scripts/smoke.sh sends with curl, alone or two as one body:
//
//	curl -X POST localhost:8080/admin/schedule \
//	  -H 'Content-Type: application/vnd.amigo.v3' \
//	  --data-binary @cmd/amigo-server/testdata/me-DEU_speedtest_esim_5.v3
//	cat cmd/amigo-server/testdata/me-{DEU_speedtest_esim_5,PAK_dns_sim_3}.v3 |
//	  curl -X POST localhost:8080/admin/schedule \
//	  -H 'Content-Type: application/vnd.amigo.v3' --data-binary @-
//
// Results are readable incrementally at
// /admin/results?cursor=N[&limit=M], which answers one v3 results frame
// with the next cursor in the X-Amigo-Cursor header; poll with it to
// stream only new uploads. cursor=-1 peeks at the current cursor without
// returning results. The plane's ME count is amigo_server_registered_mes
// at /admin/metrics.
//
// By default the plane is one server. fleet.Host, which also builds
// roam-fleet's self-hosted plane, makes it N servers behind a
// consistent-hash gateway (see internal/shard) for -shards N > 1 or
// -wal-dir; MEs speak to it as to one server. -wal-dir gives every shard
// a durable result log (see internal/walsink) under <dir>/shard-<i>; a
// restart over it follows wal-manifest.json (whose shard count wins over
// -shards) and reports the shards, the WAL epoch and the results
// replayed. -compact-after N merges a shard's plain sealed segments into
// one artifact whenever N have accumulated since its last one.
//
// Observability: /admin/metrics serves the plane's metrics in
// Prometheus text format (a server's per-route requests and latencies,
// lease/ack/redelivery/dedup counters and spool depth; shards add the
// gateway's routing counters and every WAL's), and /admin/trace?n=K
// the newest trace events as JSON. -pprof additionally mounts the
// net/http/pprof profiling handlers under /debug/pprof/.
//
// The server shuts down gracefully on SIGINT/SIGTERM: new requests are
// rejected with 503 + Retry-After (so well-behaved MEs back off and
// retry against the replacement server) while in-flight uploads drain
// for up to 10 s, then every WAL is synced and closed. A failed close
// exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"roamsim/internal/fleet"
	"roamsim/internal/obs"
)

// drainGate rejects requests with 503 + Retry-After once draining is
// set. The header matters: the ME retry policy treats a bare 503 and a
// hinted one identically only because it clamps the hint, but fleet
// operators pointing other clients at the server get a standard,
// parseable backoff signal instead of a silent connection error.
type drainGate struct {
	draining atomic.Bool
	next     http.Handler
}

func (g *drainGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "amigo-server: draining for shutdown", http.StatusServiceUnavailable)
		return
	}
	g.next.ServeHTTP(w, r)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiling handlers under /debug/pprof/")
	shards := flag.Int("shards", 1, "control-plane shard count (>1 = consistent-hash gateway over N servers); a WAL manifest's count wins")
	walDir := flag.String("wal-dir", "", "durable WAL directory; every shard logs results under <dir>/shard-<i> (empty = in-memory results)")
	compactAfter := flag.Int("compact-after", 0, "compact a shard's WAL when N plain sealed segments have accumulated since its last compaction artifact (0 = never); artifacts are never re-merged, so a shard keeps about log bytes / (N x segment bytes) of them; requires -wal-dir")
	flag.Parse()

	var ln net.Listener
	var err error
	switch {
	case *shards < 1:
		err = fmt.Errorf("-shards %d: want 1 or more", *shards)
	case *compactAfter < 0:
		err = fmt.Errorf("-compact-after %d: want 0 or more", *compactAfter)
	default:
		ln, err = net.Listen("tcp", *addr)
	}
	if err == nil {
		fmt.Printf("amigo-server listening on %s\n", *addr)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		cfg := fleet.ShardedConfig{Shards: *shards, WALDir: *walDir, CompactAfter: *compactAfter, Obs: obs.NewRegistry()}
		err = run(ctx, ln, cfg, *pprofOn, os.Stdout)
		stop()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "amigo-server:", err)
		os.Exit(1)
	}
}

// run serves the control plane cfg describes on ln until ctx is done,
// then drains: new requests get 503 + Retry-After, in-flight ones get
// 10 s to finish before their connections are closed, and the plane's
// WALs are synced and closed — a failure there is run's error.
func run(ctx context.Context, ln net.Listener, cfg fleet.ShardedConfig, pprofOn bool, out io.Writer) error {
	plane, sf, _, err := fleet.Host(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	if sf != nil {
		// The manifest may have overridden -shards (restart after a live
		// reshard); report what is actually serving.
		fmt.Fprintf(out, "amigo-server: %d shards (WAL epoch %d)", sf.Shards(), sf.Epoch())
		if cfg.WALDir != "" {
			records := 0
			for i := 0; i < sf.Shards(); i++ {
				records += sf.WAL(i).Len()
			}
			fmt.Fprintf(out, ", WALs under %s (%d results replayed)", cfg.WALDir, records)
		}
		fmt.Fprintln(out)
	}
	mux := http.NewServeMux()
	mux.Handle("/", plane)
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	gate := &drainGate{next: mux}
	hs := &http.Server{
		Handler:           gate,
		ReadTimeout:       15 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	var serveErr error
	select {
	case serveErr = <-errc:
	case <-ctx.Done():
		gate.draining.Store(true)
		fmt.Fprintln(out, "amigo-server: draining, new requests get 503 + Retry-After")
		// An upload already appended to a WAL still gets its 2xx; only
		// force-close if draining stalls.
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(shutCtx); err != nil {
			hs.Close()
		}
		cancel()
		<-errc // http.ErrServerClosed
	}
	if sf != nil {
		return errors.Join(serveErr, sf.Close())
	}
	return serveErr
}
