// Command amigo-me runs a measurement endpoint: it registers with an
// amigo-server, reports device vitals, and executes whatever
// instrumentation the server queues, measuring against the simulated
// Airalo world (the rooted-phone substitute). It speaks the protocol the
// fleet does: it leases tasks in batches of up to leaseBatch over v3
// frames, runs them, and uploads each batch's results as one v3 frame.
// Every tenth lease carries a heartbeat's vitals; there is no separate
// status request.
//
// Usage:
//
//	amigo-me [-server http://localhost:8080] [-country PAK] [-seed 1] [-poll 500ms] [-once]
//
// -once exits after the first empty or short lease — a lease of fewer
// than leaseBatch tasks held the queue's last ones, so once they are
// uploaded the queue is drained without asking again; otherwise -poll is
// the wait before leasing again after either.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/rng"
)

// leaseBatch is the most tasks one lease asks for: the fleet driver's default.
const leaseBatch = 32

func main() {
	server := flag.String("server", "http://localhost:8080", "control server base URL")
	country := flag.String("country", "PAK", "deployment country (ISO3)")
	seed := flag.Int64("seed", 1, "world seed")
	poll := flag.Duration("poll", 500*time.Millisecond, "wait after an empty or short lease")
	once := flag.Bool("once", false, "drain the queue once and exit")
	flag.Parse()

	w, err := airalo.Build(*seed)
	if err != nil {
		fatal(err)
	}
	iso := strings.ToUpper(*country)
	dep, ok := w.Deployments[iso]
	if !ok {
		fatal(fmt.Errorf("unknown country %q", iso))
	}
	ep := amigo.NewEndpoint("me-"+iso, *server, dep, rng.New(*seed).Fork("me/"+iso))
	if err := ep.Register(); err != nil {
		fatal(err)
	}
	fmt.Printf("me-%s registered with %s\n", iso, *server)

	heartbeatEvery := 10 // leases
	for batch := 0; ; batch++ {
		if batch%heartbeatEvery == 0 {
			ep.Heartbeat() // rides this batch's lease
		}
		n, err := ep.RunBatch(leaseBatch)
		if err != nil {
			fatal(err)
		}
		if n > 0 {
			fmt.Printf("%d tasks executed and uploaded\n", n)
			continue
		}
		if *once {
			return
		}
		time.Sleep(*poll)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amigo-me:", err)
	os.Exit(1)
}
