// Command roam-fleet runs a fleet-scale AmiGo device campaign over the
// real HTTP control plane: it expands a campaign plan into per-ME
// schedules, drives thousands of simulated mobile endpoints through
// register / batch-lease / execute / batch-upload against an AmiGo
// control server, ingests the uploaded results and prints the Table 4
// counts and Figure 11-style RTT aggregates regenerated from the fleet
// output.
//
// By default it self-hosts a control server on a loopback port; point
// -server at a running amigo-server to drive an external one instead.
//
// Usage:
//
//	roam-fleet [-server URL] [-mes N] [-countries GEO,DEU,...] [-seed N]
//	           [-workers N] [-lease K] [-reps N]
//	           [-configs sim,esim] [-tools speedtest,mtr,...] [-crosscheck]
//	           [-chaos light|heavy] [-chaos-seed N] [-straggler DUR]
//	           [-metrics] [-shards N] [-wal-dir DIR] [-kill-shard N]
//	           [-compact-after N] [-reshard N] [-reshard-after U]
//	           [-virtual-time] [-realize]
//	           [-cpuprofile FILE] [-memprofile FILE]
//
// MEs lease and upload in batches over the v3 binary-frame routes (see
// internal/wire).
//
// With -metrics the whole stack is instrumented — control server,
// driver, every ME endpoint, and the network simulator's route cache —
// and the full Prometheus exposition is dumped to stdout at the end of
// the run. The self-hosted server also serves it live at
// /admin/metrics. Metrics never change the dataset: for a fixed seed
// the output is byte-identical with or without -metrics.
//
// With -crosscheck the same plan is also run serially in-process — one
// task per lease on direct calls into a private server, no socket and
// no codec (fleet.RunInProcess) — and the two Table 4 / RTT renderings
// are compared; any mismatch exits nonzero. For a fixed seed the fleet
// output is byte-identical regardless of -workers or -lease.
//
// With -chaos the run is subjected to seeded deterministic fault
// injection (connection resets, truncation, duplicate deliveries,
// latency spikes, 503/429 storms, mid-campaign ME crash/restart; see
// internal/chaos). The ingested dataset and printed tables are still
// byte-identical to the clean run — faults cost retries, never data —
// and the injected fault schedule replays exactly for a given
// -chaos-seed. Chaos requires the self-hosted server (the storm
// middleware must wrap the handler).
//
// With -shards N the self-hosted control plane is horizontally sharded:
// N independent amigo servers behind a consistent-hash gateway (see
// internal/shard). -wal-dir gives every shard a durable write-ahead
// result log (see internal/walsink) under <dir>/shard-<i>. -kill-shard
// kills the given shard once, right after it accepts its first upload —
// its registry, queues and idempotency state are dropped wholesale and
// a fresh server is brought up over the same WAL; MEs rediscover the
// shard and re-register, and the ingested dataset must still be
// byte-identical (pair with -crosscheck to prove it end to end).
//
// -compact-after N compacts a shard's WAL whenever N plain sealed
// segments have accumulated since its last compaction artifact: they
// are merged into one new canonical artifact and retired, without
// losing a record. Artifacts are never merged again, so each byte is
// rewritten at most once and a shard keeps about log bytes / (N x
// segment bytes) artifacts, at most N plain sealed segments and the
// active one. -reshard N live-reshards the running control plane
// onto N shards after the fleet's -reshard-after-th accepted upload:
// the gateway quiesces, every durable result is re-routed into a fresh
// per-shard WAL set under the next epoch directory, and the campaign
// carries on against the new ring — with a dataset still byte-identical
// to the clean run (again, -crosscheck proves it end to end). Both
// require -wal-dir.
//
// With -realize every ME spends each task's simulated network duration
// (speedtest transfers, traceroute probe round trips, the 120 s video
// watch window) on the campaign clock — the pacing an actual fleet
// would have. With -virtual-time that clock is a discrete-event virtual
// clock (see internal/vclock): the campaign jumps over every wait at
// quiescence and finishes as fast as the CPU drains the event queue,
// with a dataset byte-identical to the real-time run.
//
// -cpuprofile and -memprofile write pprof profiles to the named files.
// The CPU profile covers the campaign: the driver's run plus the ingest,
// not the world build. The allocation profile covers the process — the
// runtime wants its sampling rate set once, at start-up — so read the
// campaign out of it by ignoring the build: `go tool pprof -top
// -sample_index=alloc_space -ignore='airalo\.Build' FILE`. Both observe
// the run and select nothing; `make profile-campaign` runs the
// self-hosted campaign with both and prints the two listings.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/fleet"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
	"roamsim/internal/vclock"
)

func main() {
	server := flag.String("server", "", "AmiGo control server base URL (empty = self-host on loopback)")
	mes := flag.Int("mes", 1000, "total fleet size; split evenly across countries")
	countries := flag.String("countries", strings.Join(fleet.DeviceCountries, ","), "comma-separated ISO3 country codes")
	seed := flag.Int64("seed", 42, "campaign seed (same seed = identical dataset)")
	workers := flag.Int("workers", 0, "ME worker pool size (0 = GOMAXPROCS; output is identical either way)")
	lease := flag.Int("lease", 32, "max tasks leased per lease round trip")
	reps := flag.Int("reps", 1, "repetitions per (tool, config)")
	configs := flag.String("configs", "sim,esim", "comma-separated SIM configurations")
	tools := flag.String("tools", "", "comma-separated task kinds to keep (speedtest,mtr,cdn,dns,video; empty = all)")
	crosscheck := flag.Bool("crosscheck", false, "also run the plan serially in-process and compare outputs")
	chaosMode := flag.String("chaos", "", "inject deterministic faults: \"light\" or \"heavy\" (empty = off)")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-schedule seed (0 = use -seed); same seed replays the same faults")
	straggler := flag.Duration("straggler", 0, "per-ME-incarnation watchdog; a stuck ME is killed and restarted (0 = off)")
	metrics := flag.Bool("metrics", false, "instrument the run and dump the Prometheus exposition to stdout at the end")
	shards := flag.Int("shards", 1, "self-hosted control-plane shard count (>1 = consistent-hash gateway over N servers)")
	walDir := flag.String("wal-dir", "", "durable WAL directory for shard result sinks (empty = in-memory sinks)")
	killShard := flag.Int("kill-shard", -1, "kill this shard once after its first accepted upload (-1 = off); requires -shards > 1")
	compactAfter := flag.Int("compact-after", 0, "compact a shard's WAL when N plain sealed segments have accumulated since its last compaction artifact (0 = never); artifacts are never re-merged, so a shard keeps about log bytes / (N x segment bytes) of them; requires -wal-dir")
	walSegBytes := flag.Int("wal-segment-bytes", 0, "WAL segment rotation size in bytes (0 = walsink default); small values force rotation so -compact-after has prey")
	reshardTo := flag.Int("reshard", 0, "live-reshard the control plane onto N shards mid-campaign (0 = off); requires -wal-dir")
	reshardAfter := flag.Int("reshard-after", 1, "fire -reshard after the fleet's Uth accepted upload")
	virtualTime := flag.Bool("virtual-time", false, "run the campaign on a discrete-event virtual clock (identical dataset, no real waiting)")
	realize := flag.Bool("realize", false, "spend each task's simulated network duration on the campaign clock")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign (run + ingest) to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the process to this file (pprof -ignore='airalo\\.Build' leaves the campaign)")
	flag.Parse()
	if *memProfile != "" {
		// One sample per 4 KiB allocated: the default, one per 512 KiB,
		// is too coarse to rank the allocators of a two-second campaign.
		runtime.MemProfileRate = 4096
	}

	plan := fleet.DeviceCampaignPlan()
	plan.Countries = splitList(*countries)
	if len(plan.Countries) == 0 {
		fatal(fmt.Errorf("-countries %q names no country", *countries))
	}
	plan.MEsPerCountry = max(1, *mes/len(plan.Countries))
	plan.Configs = splitList(*configs)
	plan.Reps = *reps
	if *tools != "" {
		keep := map[string]bool{}
		for _, k := range splitList(*tools) {
			keep[k] = true
		}
		var tasks []amigo.Task
		for _, task := range plan.Tasks {
			if keep[task.Kind] {
				tasks = append(tasks, task)
			}
		}
		if len(tasks) == 0 {
			fatal(fmt.Errorf("-tools %q matches none of the campaign tools", *tools))
		}
		plan.Tasks = tasks
	}

	w, err := airalo.Build(*seed)
	if err != nil {
		fatal(err)
	}

	var inj *chaos.Injector
	switch *chaosMode {
	case "":
	case "light", "heavy":
		cseed := *chaosSeed
		if cseed == 0 {
			cseed = *seed
		}
		cfg := chaos.Light()
		if *chaosMode == "heavy" {
			cfg = chaos.Heavy()
		}
		inj = chaos.NewInjector(cseed, cfg)
		if *server != "" {
			fatal(fmt.Errorf("-chaos needs the self-hosted server (storm middleware); drop -server"))
		}
	default:
		fatal(fmt.Errorf("unknown -chaos mode %q (want light or heavy)", *chaosMode))
	}

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
		fleet.RegisterNetObs(reg, w.Net)
	}

	sharded := *shards > 1 || *walDir != "" || *killShard >= 0 || *compactAfter > 0 || *reshardTo > 0
	if sharded && *server != "" {
		fatal(fmt.Errorf("-shards/-wal-dir/-kill-shard/-compact-after/-reshard configure the self-hosted control plane; drop -server"))
	}
	if *killShard >= *shards {
		fatal(fmt.Errorf("-kill-shard %d out of range for -shards %d", *killShard, *shards))
	}
	if (*compactAfter > 0 || *reshardTo > 0) && *walDir == "" {
		fatal(fmt.Errorf("-compact-after/-reshard need a durable log; add -wal-dir"))
	}

	baseURL := *server
	var sf *fleet.ShardedFleet
	if baseURL == "" {
		url, shutdown, f, err := selfHost(inj, reg, *shards, *walDir, *killShard, *compactAfter, *reshardTo, *reshardAfter, *walSegBytes)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		baseURL = url
		sf = f
		if sf != nil {
			fmt.Printf("self-hosted sharded control plane (%d shards) at %s\n", sf.Shards(), baseURL)
		} else {
			fmt.Printf("self-hosted control server at %s\n", baseURL)
		}
	}

	d := &fleet.Driver{
		BaseURL:     baseURL,
		Seed:        *seed,
		Workers:     *workers,
		LeaseBatch:  *lease,
		StreamLabel: "table4",
		Heartbeat:   true,
		Chaos:       inj,
		Straggler:   *straggler,
		Obs:         reg,
		Realize:     *realize,
	}
	if *virtualTime {
		d.Clock = vclock.NewVirtual()
	}
	stopCPUProfile, err := startCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}
	wallStart := vclock.Wall.Now()
	camp, err := d.Run(w, plan)
	wallSeconds := vclock.Wall.Now().Sub(wallStart).Seconds()
	if err != nil {
		fatal(err)
	}
	ds, err := fleet.Ingest(w.Reg, camp)
	if err != nil {
		fatal(err)
	}
	if err := stopCPUProfile(); err != nil {
		fatal(err)
	}
	if err := writeAllocProfile(*memProfile); err != nil {
		fatal(err)
	}
	if sf != nil {
		// The campaign's last upload may have fired a reshard that is
		// still swapping; settle before reading topology or WAL state.
		sf.WaitIdle()
		if err := sf.ReshardErr(); err != nil {
			fatal(err)
		}
		if err := sf.CompactErr(); err != nil {
			fatal(err)
		}
	}

	st := camp.Stats
	perSec := float64(st.Results) / st.Elapsed.Seconds()
	fmt.Printf("fleet: %d MEs, %d tasks scheduled, %d results in %s (%.0f results/s), %d failures\n",
		st.MEs, st.TasksScheduled, st.Results, st.Elapsed.Round(time.Millisecond), perSec, len(ds.Failures))
	if v, ok := d.Clock.(*vclock.Virtual); ok {
		vs := v.Stats()
		fmt.Printf("virtual: campaign makespan %s of virtual time in %.3fs of wall time; %d quiescence advances, %d parks\n",
			st.Elapsed.Round(time.Millisecond), wallSeconds, vs.Advances, vs.Parks)
	}
	if inj != nil {
		fmt.Printf("chaos: %s mode, seed %d: injected %d faults; dataset is byte-identical to the clean run\n",
			*chaosMode, inj.Seed(), len(inj.Events()))
	}
	if sf != nil {
		// Read the live topology, not the flags: a reshard may have
		// changed the shard count mid-campaign.
		nShards := sf.Shards()
		records, segments, bytes := 0, 0, int64(0)
		retired := 0
		for i := 0; i < nShards; i++ {
			if wal := sf.WAL(i); wal != nil {
				records += wal.Len()
				n, b := wal.Segments()
				segments += n
				bytes += b
				retired += wal.Retired()
			}
		}
		fmt.Printf("shards: %d shards (WAL epoch %d), %d killed and recovered", nShards, sf.Epoch(), sf.Kills())
		if *walDir != "" {
			fmt.Printf("; WAL: %d results in %d segments (%d bytes) under %s", records, segments, bytes, *walDir)
		}
		fmt.Println()
		if n, rst := sf.Reshards(); n > 0 {
			fmt.Printf("reshard: %d reshards completed; last replayed %d wal-records (%d re-homed) into %d shards\n",
				n, rst.Records, rst.Moved, nShards)
		}
		if *compactAfter > 0 {
			fmt.Printf("compact: %d source segments retired, %d shards killed mid-compaction and recovered\n",
				retired, sf.CompactKills())
		}
	}
	fmt.Println()
	fmt.Println(fleet.Table4(ds, camp.Plan).String())
	fmt.Println(fleet.RTTSummary(ds, camp.Plan).String())

	if reg != nil {
		fmt.Println("# metrics (Prometheus text exposition)")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	if *crosscheck {
		inproc, err := fleet.RunInProcess(w, plan, *seed, "table4", true)
		if err != nil {
			fatal(err)
		}
		ids, err := fleet.Ingest(w.Reg, inproc)
		if err != nil {
			fatal(err)
		}
		ok := true
		if got, want := fleet.Table4(ds, plan).String(), fleet.Table4(ids, plan).String(); got != want {
			ok = false
			fmt.Fprintf(os.Stderr, "crosscheck: Table 4 mismatch\nfleet:\n%s\nin-process:\n%s\n", got, want)
		}
		if got, want := fleet.RTTSummary(ds, plan).String(), fleet.RTTSummary(ids, plan).String(); got != want {
			ok = false
			fmt.Fprintf(os.Stderr, "crosscheck: RTT summary mismatch\nfleet:\n%s\nin-process:\n%s\n", got, want)
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Println("crosscheck: fleet output matches the serial in-process campaign")
	}
}

// selfHost starts the control plane on an ephemeral loopback port and
// returns its base URL plus a shutdown func. With shards > 1 (or a WAL
// dir, or a kill request) the plane is a sharded fleet behind the
// consistent-hash gateway and the *fleet.ShardedFleet is returned too;
// otherwise it is a single amigo server and the fleet is nil. A non-nil
// injector wraps the handler with server-side storm middleware (admin
// traffic carries no chaos header and passes through untouched); a
// non-nil registry instruments the plane and is served at
// /admin/metrics.
func selfHost(inj *chaos.Injector, reg *obs.Registry, shards int, walDir string, killShard, compactAfter, reshardTo, reshardAfter, segBytes int) (string, func(), *fleet.ShardedFleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	var handler http.Handler
	var sf *fleet.ShardedFleet
	if shards > 1 || walDir != "" || killShard >= 0 || compactAfter > 0 || reshardTo > 0 {
		var steps []fleet.ReshardStep
		if reshardTo > 0 {
			steps = []fleet.ReshardStep{{AfterUploads: reshardAfter, Shards: reshardTo}}
		}
		sf, err = fleet.NewShardedFleet(fleet.ShardedConfig{
			Shards:         shards,
			WALDir:         walDir,
			SegmentBytes:   segBytes,
			Chaos:          inj,
			ForceKill:      killShard >= 0,
			ForceKillShard: killShard,
			CompactAfter:   compactAfter,
			Reshards:       steps,
			Obs:            reg,
		})
		if err != nil {
			ln.Close()
			return "", nil, nil, err
		}
		handler = sf.Handler()
	} else {
		srv := amigo.NewServer(nil, amigo.WithObs(reg))
		handler = shard.Mount(srv.Handler(), srv.AdminHandler())
	}
	if inj != nil {
		handler = inj.Middleware(handler)
	}
	hs := &http.Server{
		Handler:           handler,
		ReadTimeout:       15 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	//lint:allow gojoin server goroutine lives until shutdown() closes the listener, which makes Serve return
	go hs.Serve(ln)
	shutdown := func() {
		hs.Close()
		if sf != nil {
			sf.Close()
		}
	}
	return "http://" + ln.Addr().String(), shutdown, sf, nil
}

// startCPUProfile starts a CPU profile into path ("" = none) and returns
// the function that stops it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeAllocProfile writes everything the process has allocated so far,
// live or collected, to path ("" = none) — what a pprof
// -sample_index=alloc_space listing reads.
func writeAllocProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // the profile is as of the last completed cycle
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roam-fleet:", err)
	os.Exit(1)
}
