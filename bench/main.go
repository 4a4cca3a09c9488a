// Command bench is the repository's benchmark of record: four
// closed-loop workloads over the AmiGo control plane (see README.md for
// why each exists), run one per process so peak memory and GC state do
// not leak between them.
//
//	go run ./bench -workload drain_single            # end-to-end metrics
//	go run ./bench -workload drain_single -trace 1   # per-layer metrics
//	go run ./bench -agree                            # two sets of runs, compared
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything above it is the
// human-readable report. BENCHMARK.json at the repository root names the
// metrics, their units, directions and regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is one run's parameters. The sizes are fixed by the workload
// definitions; only -quick (the tier-1 smoke pass) shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // Chrome trace path ("" = <tmp>/roambench-trace-<workload>.json)
	nproc    int    // client goroutines and the HTTP connection cap
	tmp      string // the run's temp root; run creates and removes it

	mes           int // drain workloads: registered MEs
	mesPerCountry int // campaign workloads: MEs in each of the ten countries
	minIters      int // timed iterations run even when -seconds has elapsed
	setups        int // set-up repetitions; setup_s is their median
	rssIter       int // peak_rss_mib is VmHWM when this timed iteration ends
	tracedIters   int // iterations per side (untraced, traced) of a -trace 1 run
	probeRounds   int // passes a layer probe makes over the captured inputs
}

// Fixed workload shape, shared by the drains (see README.md).
const (
	tasksPerME = 64
	leaseBatch = 32
	walShards  = 4
)

func newConfig(workload string, seed int64, seconds float64, trace, quick bool) config {
	cfg := config{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		nproc: runtime.NumCPU(),
		mes:   1000, mesPerCountry: 100,
		minIters: 10, setups: 3, rssIter: 10, tracedIters: 6, probeRounds: 200,
	}
	if quick {
		cfg.mes, cfg.mesPerCountry = 50, 5
		cfg.minIters, cfg.setups, cfg.rssIter, cfg.tracedIters, cfg.probeRounds = 2, 1, 2, 1, 20
		cfg.seconds = 0
	}
	return cfg
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = the shorter traced run that prints the per-layer metrics")
	quick := fs.Bool("quick", false, "smoke sizes: 50 MEs, 2 iterations (the tier-1 test uses this)")
	out := fs.String("out", "", "with -trace 1: where the Chrome trace-event JSON goes (default a file under the temp dir)")
	agree := fs.Bool("agree", false, "run every workload twice, alternating, and fail if an end-to-end metric differs by more than its BENCHMARK.json bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		return runAgree(*seed, *seconds, stdout, stderr)
	}
	if !knownWorkload(*workload) {
		fmt.Fprintf(stderr, "bench: -workload must be one of %v\n", workloadNames)
		return 2
	}
	cfg := newConfig(*workload, *seed, *seconds, *trace != 0, *quick)
	cfg.out = *out

	// A workload that hangs (a parked virtual clock, a lost response)
	// must fail the run, not eat the driver's timeout.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "bench: run exceeded 170 s; aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		fmt.Fprintln(stderr, "bench: correctness checks failed; see the report above")
		return 1
	}
	return 0
}
