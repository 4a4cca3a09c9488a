// Command amigo-server runs the AmiGo control server: the REST endpoint
// measurement endpoints (amigo-me, roam-fleet) lease tasks from and
// upload results to. An ME speaks two routes, the v3 binary-frame batch
// lease and upload, the only way tasks, results and vitals travel (see
// internal/amigo and internal/wire for the wire formats); it does not
// register — scheduling work for an ME is what makes the server know it.
//
// Usage:
//
//	amigo-server [-addr :8080] [-pprof]
//
// Schedule tasks of one kind by POSTing to /admin/schedule; the answer
// lists their IDs:
//
//	curl -X POST localhost:8080/admin/schedule \
//	  -d '{"me":"me-PAK","kind":"speedtest","config":"esim","count":3}'
//
// A schedule of mixed tasks is one v3 MsgSchedule frame (what roam-fleet
// sends), answered with a MsgTasks frame of the queued tasks.
//
// Results are readable incrementally at
// /admin/results?cursor=N[&limit=M], which returns
// {"cursor":NEXT,"results":[...]}; poll with the returned cursor to
// stream only new uploads. cursor=-1 peeks at the current cursor
// without returning results. A request carrying Accept:
// application/vnd.amigo.v3 (the fleet driver's) gets the same page as a
// v3 results frame, with NEXT in the X-Amigo-Cursor header.
//
// Observability: /admin/metrics serves control-plane metrics (request
// counts and latencies per route, lease/ack/redelivery/dedup counters,
// spool depth) in Prometheus text format, and /admin/trace?n=K serves
// the newest trace events as JSON. -pprof additionally mounts the
// net/http/pprof profiling handlers under /debug/pprof/.
//
// The server shuts down gracefully on SIGINT/SIGTERM: new requests are
// rejected with 503 + Retry-After (so well-behaved MEs back off and
// retry against the replacement server) while in-flight uploads drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
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
	flag.Parse()

	reg := obs.NewRegistry()
	srv := amigo.NewServer(nil, amigo.WithObs(reg))
	mux := http.NewServeMux()
	mux.Handle("/", shard.Mount(srv.Handler(), srv.AdminHandler()))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	gate := &drainGate{next: mux}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           gate,
		ReadTimeout:       15 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("amigo-server listening on %s\n", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Shed new work with 503 + Retry-After, then drain in-flight
	// uploads before exiting.
	gate.draining.Store(true)
	fmt.Println("amigo-server: draining, new requests get 503 + Retry-After")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Fatal(err)
	}
}
