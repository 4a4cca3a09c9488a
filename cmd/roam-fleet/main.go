// Command roam-fleet runs a fleet-scale AmiGo device campaign over the
// real HTTP control plane and prints the Table 4 counts and Figure
// 11-style RTT aggregates regenerated from the fleet's uploads. Its
// flags are parsed into one fleet.Scenario, whose Run hosts the control
// plane on a loopback port (or drives the amigo-server named by
// -server), runs the fleet driver against it and ingests the results —
// the same path every row of internal/fleet's proof table runs. `-h`
// lists the flags; README's table describes each.
//
// With -crosscheck the same plan is also run serially in-process — one
// task per lease on direct calls into a private server, no socket and
// no codec (fleet.RunInProcess) — and the fleet dataset's JSON bytes
// are held to that run's (fleet.Crosscheck). A match prints the dataset's
// sha256 prefix; a mismatch prints the first differing record
// (fleet.Diff) and both runs' tables, and exits 1. Neither the worker
// count, the lease size, the clock, -metrics, sharding, shard kills, a
// reshard nor -chaos's faults may change a byte of it.
//
// -cpuprofile covers the campaign (fleet.Scenario.Run), not the world
// build. -memprofile records every allocation of the process (the
// runtime wants its rate set once, at start-up, and at rate 1
// alloc_objects is an exact count), so read the campaign out of it with
// `go tool pprof -top -sample_index=alloc_space -ignore='airalo\.Build'
// FILE`. Recording every allocation slows the run severalfold, so `make
// profile-campaign` runs the campaign once under each.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/fleet"
	"roamsim/internal/vclock"
)

func main() {
	var kinds []string // the device campaign's task kinds, in plan order
	for _, t := range fleet.DeviceCampaignTools {
		if !slices.Contains(kinds, t.Kind) {
			kinds = append(kinds, t.Kind)
		}
	}
	server := flag.String("server", "", "AmiGo control server base URL (empty = self-host on loopback)")
	mes := flag.Int("mes", 1000, "total fleet size; split evenly across countries")
	countries := flag.String("countries", strings.Join(fleet.DeviceCountries, ","), "comma-separated ISO3 country codes")
	seed := flag.Int64("seed", 42, "campaign seed (same seed = identical dataset)")
	workers := flag.Int("workers", 0, "ME worker pool size (0 = GOMAXPROCS; output is identical either way)")
	lease := flag.Int("lease", 32, "max tasks leased per lease round trip")
	reps := flag.Int("reps", 1, "repetitions per (tool, config)")
	configs := flag.String("configs", "sim,esim", "comma-separated SIM configurations")
	tools := flag.String("tools", "", "comma-separated task kinds to keep ("+strings.Join(kinds, ",")+"; empty = all)")
	crosscheck := flag.Bool("crosscheck", false, "also run the plan serially in-process and hold the dataset's bytes to that run's")
	chaosMode := flag.String("chaos", "", "inject deterministic faults: \"light\" or \"heavy\" (empty = off)")
	chaosSeed := flag.Int64("chaos-seed", 0, "fault-schedule seed (0 = use -seed); same seed replays the same faults")
	straggler := flag.Duration("straggler", 0, "per-ME-incarnation watchdog; a stuck ME is killed and restarted (0 = off)")
	metrics := flag.Bool("metrics", false, "instrument the run and dump the Prometheus exposition to stdout at the end")
	shards := flag.Int("shards", 1, "self-hosted control-plane shard count (>1 = consistent-hash gateway over N servers)")
	walDir := flag.String("wal-dir", "", "durable WAL directory for shard result sinks (empty = in-memory sinks)")
	killShard := flag.Int("kill-shard", -1, "kill this shard once after its first accepted upload (-1 = off; 0 to -shards - 1); any shard kill self-hosts the sharded plane, even on one shard")
	compactAfter := flag.Int("compact-after", 0, "compact a shard's WAL when N plain sealed segments have accumulated since its last compaction artifact (0 = never); artifacts are never re-merged, so a shard keeps about log bytes / (N x segment bytes) of them; requires -wal-dir")
	walSegBytes := flag.Int("wal-segment-bytes", 0, "WAL segment rotation size in bytes (0 = walsink default); small values force rotation so -compact-after has prey")
	reshardTo := flag.Int("reshard", 0, "live-reshard the control plane onto N shards mid-campaign (0 = off); requires -wal-dir")
	reshardAfter := flag.Int("reshard-after", 1, "fire -reshard after the fleet's Uth accepted upload")
	virtualTime := flag.Bool("virtual-time", false, "run the campaign on a discrete-event virtual clock (identical dataset, no real waiting)")
	realize := flag.Bool("realize", false, "spend each task's simulated network duration on the campaign clock")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign (hosting, run and ingest) to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the process to this file (pprof -ignore='airalo\\.Build' leaves the campaign)")
	flag.Parse()
	for _, f := range []struct {
		name   string
		v, min int64
	}{{"mes", int64(*mes), 1}, {"lease", int64(*lease), 1}, {"reps", int64(*reps), 1}, {"shards", int64(*shards), 1},
		{"workers", int64(*workers), 0}, {"straggler", int64(*straggler), 0}, {"reshard", int64(*reshardTo), 0},
		{"wal-segment-bytes", int64(*walSegBytes), 0}, {"compact-after", int64(*compactAfter), 0}} {
		if f.v < f.min {
			fatal(fmt.Errorf("-%s %s: want %d or more", f.name, flag.Lookup(f.name).Value, f.min))
		}
	}
	// A flag that only qualifies another is refused without it.
	needs := map[string]struct {
		flag string
		set  bool
	}{"reshard-after": {"-reshard", *reshardTo > 0}, "wal-segment-bytes": {"-wal-dir", *walDir != ""}, "chaos-seed": {"-chaos", *chaosMode != ""}}
	flag.Visit(func(f *flag.Flag) {
		if n, ok := needs[f.Name]; ok && !n.set {
			fatal(fmt.Errorf("-%s does nothing without %s", f.Name, n.flag))
		}
		switch f.Name {
		case "shards", "wal-dir", "kill-shard", "compact-after", "wal-segment-bytes", "reshard", "reshard-after":
			if *server != "" {
				fatal(fmt.Errorf("-%s configures the self-hosted control plane; drop -server", f.Name))
			}
		}
	})
	if *memProfile != "" {
		// Record every allocation, so the alloc_objects listing is an
		// exact count rather than a sampled estimate.
		runtime.MemProfileRate = 1
	}

	sc := fleet.Scenario{
		Plan: fleet.DeviceCampaignPlan(), Seed: *seed, StreamLabel: "table4", Server: *server,
		Workers: *workers, LeaseBatch: *lease, Realize: *realize, Straggler: *straggler,
		Metrics: *metrics, Virtual: *virtualTime,
		Plane: fleet.ShardedConfig{Shards: *shards, WALDir: *walDir, SegmentBytes: *walSegBytes,
			ForceKill: *killShard >= 0, ForceKillShard: *killShard, CompactAfter: *compactAfter},
	}
	plan := &sc.Plan
	plan.Countries = pick("countries", *countries, nil)
	plan.MEsPerCountry = max(1, *mes/len(plan.Countries))
	plan.Configs = pick("configs", *configs, plan.Configs)
	plan.Reps = *reps
	if *tools != "" {
		keep := pick("tools", *tools, kinds)
		plan.Tasks = slices.DeleteFunc(slices.Clone(plan.Tasks), func(t amigo.Task) bool { return !slices.Contains(keep, t.Kind) })
	}
	if *chaosMode != "" {
		mode, ok := map[string]func() chaos.Config{"light": chaos.Light, "heavy": chaos.Heavy}[*chaosMode]
		if !ok {
			fatal(fmt.Errorf("unknown -chaos mode %q (want light or heavy)", *chaosMode))
		}
		if *server != "" {
			fatal(fmt.Errorf("-chaos needs the self-hosted server (storm middleware); drop -server"))
		}
		sc.Chaos, sc.ChaosSeed = mode(), cmp.Or(*chaosSeed, *seed)
	}
	if *killShard < -1 || *killShard >= *shards {
		fatal(fmt.Errorf("-kill-shard %d: want -1 for off or a shard index below -shards %d", *killShard, *shards))
	}
	if (*compactAfter > 0 || *reshardTo > 0) && *walDir == "" {
		fatal(fmt.Errorf("-compact-after/-reshard need a durable log; add -wal-dir"))
	}
	if *reshardTo > 0 {
		sc.Plane.Reshards = []fleet.ReshardStep{{AfterUploads: *reshardAfter, Shards: *reshardTo}}
	}

	w, err := airalo.Build(*seed)
	if err != nil {
		fatal(err)
	}
	stopProfile, err := profile(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	wallStart := vclock.Wall.Now()
	out, err := sc.Run(w)
	wallSeconds := vclock.Wall.Now().Sub(wallStart).Seconds()
	if err != nil {
		fatal(err)
	}
	if err := stopProfile(); err != nil {
		fatal(err)
	}

	camp, ds, sf := out.Campaign, out.Dataset, out.Fleet
	st := camp.Stats
	perSec := float64(st.Results) / st.Elapsed.Seconds()
	fmt.Printf("fleet: %d MEs, %d tasks scheduled, %d results in %s (%.0f results/s), %d failures\n",
		st.MEs, st.TasksScheduled, st.Results, st.Elapsed.Round(time.Millisecond), perSec, len(ds.Failures))
	if v := out.Clock; v != nil {
		vs := v.Stats()
		fmt.Printf("virtual: campaign makespan %s of virtual time in %.3fs of wall time; %d quiescence advances, %d parks\n",
			st.Elapsed.Round(time.Millisecond), wallSeconds, vs.Advances, vs.Parks)
	}
	if inj := out.Chaos; inj != nil {
		fmt.Printf("chaos: %s mode, seed %d: injected %d faults\n", *chaosMode, inj.Seed(), len(inj.Events()))
	}
	if sf != nil {
		// Read the live topology, not the flags: a reshard may have
		// changed the shard count mid-campaign.
		nShards := sf.Shards()
		var records, segments, retired int
		var bytes int64
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

	if reg := out.Obs; reg != nil {
		fmt.Println("# metrics (Prometheus text exposition)")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	// Closing the plane syncs its WALs: a failure there loses results.
	if err := out.Close(); err != nil {
		fatal(err)
	}

	if *crosscheck {
		inproc, err := fleet.RunInProcess(w, sc.Plan, sc.Seed, sc.StreamLabel, true)
		if err != nil {
			fatal(err)
		}
		ids, err := fleet.Ingest(w.Reg, inproc)
		if err != nil {
			fatal(err)
		}
		sum, err := fleet.Crosscheck(ds, ids)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crosscheck: %v\nfleet:\n%s\n%s\nin-process:\n%s\n%s\n", err,
				fleet.Table4(ds, camp.Plan), fleet.RTTSummary(ds, camp.Plan), fleet.Table4(ids, camp.Plan), fleet.RTTSummary(ids, camp.Plan))
			os.Exit(1)
		}
		fmt.Printf("crosscheck: fleet output matches the serial in-process campaign: dataset sha256 %x is byte-identical\n", sum[:8])
	}
}

// profile starts a CPU profile into cpu ("" = none). The func it returns
// stops it and writes everything the process has allocated so far, live
// or collected, into mem ("" = none): what a pprof
// -sample_index=alloc_space listing reads.
func profile(cpu, mem string) (stop func() error, err error) {
	var f *os.File
	if cpu != "" {
		if f, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, errors.Join(err, f.Close())
		}
	}
	return func() error {
		if f != nil {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
		}
		if mem == "" {
			return nil
		}
		m, err := os.Create(mem)
		if err != nil {
			return err
		}
		runtime.GC() // the profile is as of the last completed cycle
		return errors.Join(pprof.Lookup("allocs").WriteTo(m, 0), m.Close())
	}, nil
}

// pick splits the comma list value of flag -name, refusing a list that
// names nothing and an entry outside known (nil: any entry).
func pick(name, value string, known []string) []string {
	var list []string
	for _, v := range strings.Split(value, ",") {
		if v = strings.TrimSpace(v); v == "" {
			continue
		}
		if known != nil && !slices.Contains(known, v) {
			fatal(fmt.Errorf("unknown -%s entry %q (want %s)", name, v, strings.Join(known, ",")))
		}
		list = append(list, v)
	}
	if len(list) == 0 {
		fatal(fmt.Errorf("-%s %q names nothing", name, value))
	}
	return list
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "roam-fleet:", err)
	os.Exit(1)
}
