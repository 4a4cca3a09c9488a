package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
	"roamsim/internal/shard"
	"roamsim/internal/vclock"
	"roamsim/internal/walsink"
	"roamsim/internal/wire"
)

// The layer probes: fixed-count loops that call one layer's public
// functions, with no socket, on inputs captured from the workload. A
// probe's ns × the run's operation count is that layer's share of
// cpu_us_per_result (README.md, "where the time goes"). Each runs only
// on a workload whose traffic crosses the layer; report.set drops the
// rest.

// timeLoop runs fn rounds times and returns the nanoseconds per
// operation, fn doing ops operations a call.
func timeLoop(rounds, ops int, fn func()) float64 {
	fn() // fill pools and caches
	start := time.Now()
	for i := 0; i < rounds; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(rounds*ops)
}

func runProbes(cfg config, rep *report, in probeInputs) error {
	rounds := cfg.probeRounds
	results := 0
	for _, b := range in.batches {
		results += len(b)
	}
	if results == 0 {
		return fmt.Errorf("probes: the workload captured no result batches")
	}
	probeWire(rep, in, rounds, results)
	if err := probeAmigo(rep, in, rounds, results); err != nil {
		return err
	}
	probeObs(cfg, rep)
	if cfg.has("shard") {
		ring := shard.NewRing(walShards)
		rep.set("shard.ring_lookup_ns", timeLoop(rounds, len(in.names), func() {
			for _, name := range in.names {
				ring.Shard(name)
			}
		}))
	}
	if cfg.has("walsink") {
		if err := probeWalsink(cfg, rep, in, rounds, results); err != nil {
			return err
		}
	}
	if cfg.has("vclock") {
		probeVclock(cfg, rep)
	}
	if cfg.has("fleet") {
		if err := probeCampaign(cfg, rep, in.world); err != nil {
			return err
		}
	}
	return nil
}

// probeWire times the v3 codec on the workload's own batches.
func probeWire(rep *report, in probeInputs, rounds, results int) {
	var buf []byte
	var frames [][]byte
	bytes := 0
	for _, b := range in.batches {
		frames = append(frames, wire.AppendResults(nil, b))
		bytes += len(frames[len(frames)-1])
	}
	rep.set("wire.bytes_per_result", float64(bytes)/float64(results))
	encode := func() {
		for _, b := range in.batches {
			buf = wire.AppendResults(buf[:0], b)
		}
	}
	rep.set("wire.encode_results_ns_per_result", timeLoop(rounds, results, encode))
	dec := wire.NewDecoder()
	var decoded []amigo.Result
	decode := func() {
		for _, f := range frames {
			decoded, _ = dec.Results(f[wire.HeaderLen:], decoded[:0])
		}
	}
	rep.set("wire.decode_results_ns_per_result", timeLoop(rounds, results, decode))
	var tasks []amigo.Task
	rep.set("wire.tasks_roundtrip_ns_per_task", timeLoop(rounds*len(in.batches), len(in.tasks), func() {
		buf = wire.AppendTasks(buf[:0], in.tasks)
		tasks, _ = dec.Tasks(buf[wire.HeaderLen:], tasks[:0])
	}))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	encode()
	decode()
	runtime.ReadMemStats(&m1)
	rep.set("wire.allocs_per_batch", float64(m1.Mallocs-m0.Mallocs)/float64(len(in.batches)))
}

type discardSink struct{}

func (discardSink) Append([]amigo.Result) {}

// probeAmigo times the server's registry, lease and spool paths with no
// socket and no codec: ScheduleBatch, LeaseAckInto, SubmitKeyed.
func probeAmigo(rep *report, in probeInputs, rounds, results int) error {
	srv := amigo.NewServer(nil, amigo.WithSink(discardSink{}))
	for _, name := range in.names {
		srv.Register(name, "PAK")
	}
	rounds = max(1, rounds/20) // each round touches every ME
	var err error
	rep.set("amigo.schedule_ns_per_task", timeLoop(rounds, len(in.names)*len(in.tasks), func() {
		for _, name := range in.names {
			if _, e := srv.ScheduleBatch(name, in.tasks); e != nil {
				err = e
			}
		}
	}))
	acks := make([]int, len(in.names))
	var leased []amigo.Task
	rep.set("amigo.lease_ns_per_task", timeLoop(rounds, len(in.names)*len(in.tasks), func() {
		for i, name := range in.names {
			for n := 0; n < len(in.tasks); n += len(leased) {
				leased, err = srv.LeaseAckInto(name, min(leaseBatch, len(in.tasks)-n), acks[i], leased[:0])
				if err != nil || len(leased) == 0 {
					err = fmt.Errorf("lease for %s: %d tasks, %v", name, len(leased), err)
					return
				}
				acks[i] = leased[len(leased)-1].ID
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("amigo probe: %w", err)
	}
	key := 0
	rep.set("amigo.submit_ns_per_result", timeLoop(rounds*20, results, func() {
		for _, b := range in.batches {
			key++
			if e := srv.SubmitKeyed(fmt.Sprint(key), b); e != nil {
				err = e
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("amigo probe: %w", err)
	}
	return nil
}

// probeObs prices the instrumentation primitives under nproc-way
// contention, and one exposition of a registry the size of a campaign's.
func probeObs(cfg config, rep *report) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_probe_total")
	h := reg.Histogram("bench_probe_ms")
	const n = 200000
	contend := func(op func(i int)) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < cfg.nproc; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					op(i)
				}
			}()
		}
		wg.Wait()
		return float64(time.Since(start)) / n
	}
	rep.set("obs.counter_inc_ns", contend(func(int) { c.Inc() }))
	rep.set("obs.histogram_observe_ns", contend(func(i int) { h.Observe(float64(i%1000) / 10) }))
	for i := 0; i < 64; i++ {
		reg.Counter("bench_probe_series_total", obs.L("series", fmt.Sprint(i))).Inc()
		reg.Histogram("bench_probe_series_ms", obs.L("series", fmt.Sprint(i))).Observe(float64(i))
	}
	rep.set("obs.write_prometheus_ms", timeLoop(20, 1, func() { reg.WritePrometheus(io.Discard) })/1e6)
}

// probeWalsink times the WAL's four operations in a temp dir: append
// (default segment and sync sizes), compact, cold open, replay.
func probeWalsink(cfg config, rep *report, in probeInputs, rounds, results int) error {
	dir, err := os.MkdirTemp(cfg.tmp, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, err := walsink.Open(dir, walsink.Options{})
	if err != nil {
		return err
	}
	rep.set("walsink.append_ns_per_result", timeLoop(rounds, results, func() {
		for _, b := range in.batches {
			wal.Append(b)
		}
	}))
	if err := wal.Sync(); err != nil {
		wal.Close()
		return err
	}
	start := time.Now()
	st, err := wal.Compact(wal.Len())
	took := time.Since(start)
	if err != nil {
		wal.Close()
		return err
	}
	if st.InBytes > 0 {
		rep.set("walsink.compact_ms_per_mib", took.Seconds()*1e3/(float64(st.InBytes)/(1<<20)))
	}
	_, bytes := wal.Segments()
	if err := wal.Close(); err != nil {
		return err
	}
	start = time.Now()
	if wal, err = walsink.Open(dir, walsink.Options{}); err != nil {
		return err
	}
	rep.set("walsink.open_ms_per_mib", time.Since(start).Seconds()*1e3/(float64(bytes)/(1<<20)))
	n := 0
	start = time.Now()
	_, err = wal.Replay(0, func(wire.Result) error { n++; return nil })
	took = time.Since(start)
	if err == nil && n > 0 {
		rep.set("walsink.replay_ns_per_result", float64(took)/float64(n))
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeVclock prices the virtual clock the way campaign_virtual_chaos
// uses it: one registered waiter per ME sleeping seeded durations (each
// wake is a quiescence of the whole fleet), timer start/stop, and
// Advance over 10k pending timers.
func probeVclock(cfg config, rep *report) {
	waiters, sleeps := 10*cfg.mesPerCountry, 20
	durs := make([][]time.Duration, waiters)
	src := rng.New(cfg.seed).Fork("bench/vclock")
	for i := range durs {
		for s := 0; s < sleeps; s++ {
			durs[i] = append(durs[i], time.Duration(src.Uniform(1, 2000)*float64(time.Millisecond)))
		}
	}
	v := vclock.NewVirtual()
	var wg sync.WaitGroup
	v.Add(waiters)
	wg.Add(waiters)
	start := time.Now()
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			defer v.Done()
			for _, d := range durs[i] {
				v.Sleep(d)
			}
		}()
	}
	wg.Wait()
	rep.set("vclock.sleep_wake_ns", float64(time.Since(start))/float64(waiters*sleeps))

	v = vclock.NewVirtual()
	rep.set("vclock.timer_start_stop_ns", timeLoop(100000, 1, func() { v.NewTimer(time.Second).Stop() }))

	const pending = 10000
	for i := 0; i < pending; i++ {
		v.NewTimer(time.Duration(src.Uniform(1, 1000) * float64(time.Millisecond)))
	}
	start = time.Now()
	v.Advance(2 * time.Second)
	rep.set("vclock.advance_ns_per_timer", float64(time.Since(start))/pending)
}

// probeCampaign prices the ME-side work of a campaign — Endpoint.Execute
// into measure/netsim/airalo — and the planning and routing around it.
func probeCampaign(cfg config, rep *report, world *airalo.World) error {
	plan := campaignPlan(cfg)
	scheds := plan.Schedules()
	rep.set("fleet.schedules_ms", timeLoop(5, 1, func() { scheds = plan.Schedules() })/1e6)

	// Every tenth ME: all ten countries, a tenth of the fleet.
	tasks := 0
	var spent time.Duration
	for i := 0; i < len(scheds); i += 10 {
		sc := scheds[i]
		ep := amigo.NewEndpoint(sc.Name, "", world.Deployments[sc.ISO], rng.New(cfg.seed).Fork(sc.Label))
		start := time.Now()
		for _, t := range sc.Tasks {
			ep.Execute(t)
		}
		spent += time.Since(start)
		tasks += len(sc.Tasks)
	}
	rep.set("measure.exec_us_per_task", micros(spent)/float64(tasks))
	if runS := rep.Metrics["fleet.run_s"].Value; runS > 0 {
		perCampaign := spent.Seconds() / float64(tasks) * float64(plan.MECount()*plan.TasksPerME())
		rep.set("measure.exec_share", perCampaign/(runS*float64(cfg.nproc)))
	}

	dep := world.Deployments[scheds[0].ISO]
	sess, err := dep.AttachESIM(rng.New(cfg.seed))
	if err != nil {
		return err
	}
	rep.set("netsim.route_hit_ns", timeLoop(100000, 1, func() { world.Net.Route(sess.UE, sess.PGWNode) }))
	return nil
}
