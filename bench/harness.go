package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// workload is one of the four closed loops. The harness drives it one
// iteration at a time: prepare and verify run off the clock, drive is
// the timed part.
type workload interface {
	// prepare readies one iteration: schedule the backlog (drains) or
	// stand up a fresh control server (campaigns).
	prepare() error
	// drive is the timed part. It returns how many results it moved.
	drive() (results int, err error)
	// verify checks the iteration's outputs and releases what prepare
	// built. A non-nil error is a failed correctness check.
	verify() error
	// finish runs once after the timed iterations, for work that needs
	// them all (the WAL's cold replay); it reports through rep.
	finish(rep *report) error
	// close releases listeners, clients and temp dirs.
	close() error
}

// build constructs a workload and runs its warm-up iteration, so that
// connections are dialled, pools are filled and route caches are warm
// before anything is timed. The whole of it is what setup_s measures.
// Client-side latency samples go to lat, which the caller owns.
func build(cfg config, tr *tracer, lat *latencies) (workload, error) {
	var w workload
	var err error
	switch cfg.workload {
	case "drain_single", "drain_sharded_wal":
		w, err = newDrain(cfg, tr, lat)
	default:
		w, err = newCampaign(cfg, tr, lat)
	}
	if err != nil {
		return nil, err
	}
	if _, err := iterate(w, true); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up iteration: %w", err)
	}
	lat.reset() // the warm-up's samples
	return w, nil
}

// iterStats is what one timed iteration measured.
type iterStats struct {
	results int
	wall    time.Duration
	cpu     time.Duration // process user+sys over the timed part
	mallocs uint64
	bytes   uint64
}

// iterate runs one iteration. Re-scheduling, the forced GC, the
// correctness check and the goroutine-leak check are all off the clock.
// The warm-up iteration dials the keep-alive connections, so it alone
// may end with more goroutines than it began with.
func iterate(w workload, warmup bool) (iterStats, error) {
	goroutines := runtime.NumGoroutine()
	if err := w.prepare(); err != nil {
		return iterStats{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	n, err := w.drive()
	st := iterStats{results: n, wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	st.mallocs, st.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	if verr := w.verify(); err == nil {
		err = verr
	}
	if err == nil && !warmup {
		err = settleGoroutines(goroutines)
	}
	return st, err
}

// settleGoroutines waits for the goroutine count to come back down to
// what it was before the iteration: closed listeners and idle
// connections take a moment to unwind.
func settleGoroutines(before int) error {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d before the iteration, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kb, _ := strconv.ParseFloat(string(bytes.TrimSpace(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte("kB")))), 64)
			return kb / 1024
		}
	}
	return 0
}

// run executes one benchmark run and returns its report.
func run(cfg config, log io.Writer) (*report, error) {
	rep := newReport(cfg, log)
	rep.logf("# workload=%s seed=%d seconds=%g trace=%v go=%s GOMAXPROCS=%d nproc=%d clients=%d conns<=%d",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0),
		runtime.NumCPU(), cfg.nproc, cfg.nproc)
	// Every temp dir of the run lives under one root, so that a leaked
	// one is visible: the root must be empty when the workload is closed.
	var err error
	if cfg.tmp, err = os.MkdirTemp("", "roambench-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.tmp)
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		err = runTimed(cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	if left, err := os.ReadDir(cfg.tmp); err != nil || len(left) > 0 {
		rep.fail(0, fmt.Errorf("temp dirs leaked under %s: %d entries (%v)", cfg.tmp, len(left), err))
	}
	rep.printMetrics()
	return rep, nil
}

// runTimed is the untraced run: set up cfg.setups times (setup_s is the
// median), then iterate for cfg.seconds and report medians.
func runTimed(cfg config, rep *report) error {
	var w workload
	var setups []float64
	lat := newLatencies()
	for i := 0; i < cfg.setups; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if w, err = build(cfg, nil, lat); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()
	rep.set("setup_s", median(setups))

	var iters []iterStats
	begin := time.Now()
	for i := 0; i < cfg.minIters || time.Since(begin).Seconds() < cfg.seconds; i++ {
		st, err := iterate(w, false)
		rep.Attempted += st.results
		if err != nil {
			rep.fail(st.results, fmt.Errorf("iteration %d: %w", i, err))
			break
		}
		iters = append(iters, st)
		if len(iters) == cfg.rssIter {
			// A fixed point in the work, not process exit, so that a
			// faster commit is not charged for the extra iterations it
			// fits into the run.
			rep.set("peak_rss_mib", peakRSSMiB())
		}
	}
	if err := w.finish(rep); err != nil {
		rep.fail(0, err)
	}
	summarize(rep, iters, lat)
	return nil
}

// summarize turns the timed iterations into the end-to-end metrics.
func summarize(rep *report, iters []iterStats, lat *latencies) {
	var rates, cpus []float64
	var results int
	var mallocs, bytes uint64
	for _, st := range iters {
		rates = append(rates, float64(st.results)/st.wall.Seconds())
		cpus = append(cpus, micros(st.cpu)/float64(st.results))
		results += st.results
		mallocs += st.mallocs
		bytes += st.bytes
	}
	if results == 0 {
		return
	}
	rep.set("results_per_s", median(rates))
	rep.set("cpu_us_per_result", median(cpus))
	rep.set("allocs_per_result", float64(mallocs)/float64(results))
	rep.set("alloc_bytes_per_result", float64(bytes)/float64(results))
	// Client latency is a per-layer metric (http.*, from the traced run):
	// on the campaigns it moved by more between identical runs than any
	// bound BENCHMARK.json may set. The timed run still shows it.
	rep.logf("# iterations=%d results=%d client latency p50: lease %.1f us, upload %.1f us",
		len(iters), results, median(lat.of(opLease)), median(lat.of(opUpload)))
	rep.logf("# by iteration: results_per_s %.0f", rates)
	rep.logf("# by iteration: cpu_us_per_result %.2f", cpus)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
