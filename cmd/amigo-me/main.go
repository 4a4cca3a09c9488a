// Command amigo-me runs a measurement endpoint: it polls an amigo-server
// for the instrumentation queued for it, executes it against the
// simulated Airalo world (the rooted-phone substitute), and uploads the
// results, reporting device vitals along the way. It speaks the protocol
// the fleet does: it leases tasks in batches of up to leaseBatch over v3
// frames, runs them, and uploads each batch's results as one v3 frame,
// which carries the next lease when the batch was not the last.
// It does not register: the server knows an ME once something is
// scheduled for it, and until then a lease is 404, which amigo-me reads
// as "nothing scheduled yet". Every tenth lease carries a heartbeat's
// vitals; there is no separate status request.
//
// Usage:
//
//	amigo-me [-server http://localhost:8080] [-country PAK] [-seed 1] [-poll 500ms] [-once]
//
// -once exits after the first empty lease, or after uploading the batch
// of the lease the server marks as the last — the queue is then drained
// without asking again; otherwise -poll is the wait before leasing again
// after either.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	poll := flag.Duration("poll", 500*time.Millisecond, "wait after an empty lease or the lease the server marks as the last")
	once := flag.Bool("once", false, "exit after the lease the server marks as the last (or an empty one)")
	flag.Parse()
	if err := run(*server, *country, *seed, *poll, *once, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "amigo-me:", err)
		os.Exit(1)
	}
}

// run is the ME's loop, reporting each executed batch to out.
func run(server, country string, seed int64, poll time.Duration, once bool, out io.Writer) error {
	w, err := airalo.Build(seed)
	if err != nil {
		return err
	}
	iso := strings.ToUpper(country)
	dep, ok := w.Deployments[iso]
	if !ok {
		return fmt.Errorf("unknown country %q", iso)
	}
	ep := amigo.NewEndpoint("me-"+iso, server, dep, rng.New(seed).Fork("me/"+iso))
	fmt.Fprintf(out, "me-%s polling %s\n", iso, server)

	heartbeatEvery := 10 // leases
	for batch := 0; ; batch++ {
		if batch%heartbeatEvery == 0 {
			ep.Heartbeat() // rides this batch's lease
		}
		n, err := ep.RunBatch(leaseBatch)
		if errors.Is(err, amigo.ErrUnknownME) {
			err = nil // nothing was ever scheduled for this ME: nothing to run yet
		}
		if err != nil {
			return err
		}
		if n > 0 {
			fmt.Fprintf(out, "%d tasks executed and uploaded\n", n)
			continue
		}
		if once {
			return nil
		}
		time.Sleep(poll)
	}
}
