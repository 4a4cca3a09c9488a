package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roamsim/internal/amigo"
	"roamsim/internal/fleet"
	"roamsim/internal/obs"
	"roamsim/internal/rng"
)

// drainInputs are what a drain workload feeds the control plane: the ME
// names, one 64-task schedule shared by every ME, and canned result
// payloads of realistic sizes (speedtest ≈130 B, dns ≈110 B, mtr
// ≈300–900 B by hop count). The seed draws the order of the schedule,
// which payload goes where and every value in them; the mix of kinds
// and the mtr hop counts are fixed, so that two seeds move the same
// number of bytes to within a few digits of float formatting.
type drainInputs struct {
	names    []string
	index    map[string]int // ME name -> position in names
	tmpl     []amigo.Task
	kindOf   []int               // per schedule position: index into payloads
	payloads [][]json.RawMessage // per kind: the canned variants
}

const payloadVariants = 16

var drainKinds = []string{"speedtest", "dns", "mtr"}

func newDrainInputs(seed int64, mes int) (*drainInputs, error) {
	src := rng.New(seed).Fork("bench/drain")
	in := &drainInputs{index: make(map[string]int, mes)}
	for i := 0; i < mes; i++ {
		name := fmt.Sprintf("me-%05d", i)
		in.names = append(in.names, name)
		in.index[name] = i
	}
	kinds := make([]int, tasksPerME)
	for j := range kinds {
		kinds[j] = j % len(drainKinds)
	}
	rng.Shuffle(src, kinds)
	for _, k := range kinds {
		task := amigo.Task{Kind: drainKinds[k], Config: rng.Pick(src, []string{"sim", "esim"})}
		if task.Kind == "mtr" {
			task.Target = rng.Pick(src, []string{"Google", "Facebook"})
		}
		in.tmpl = append(in.tmpl, task)
		in.kindOf = append(in.kindOf, k)
	}
	in.payloads = make([][]json.RawMessage, len(drainKinds))
	for k, kind := range drainKinds {
		for v := 0; v < payloadVariants; v++ {
			var payload any
			switch kind {
			case "speedtest":
				payload = amigo.SpeedtestPayload{Server: "Karachi", LatencyMs: src.Uniform(20, 300),
					DownMbps: src.Uniform(1, 90), UpMbps: src.Uniform(1, 30), CQI: src.IntBetween(1, 15),
					RAT: "4G", PublicIP: fmt.Sprintf("203.0.113.%d", src.Intn(250))}
			case "dns":
				payload = amigo.DNSPayload{Resolver: "8.8.8.8", City: "Frankfurt", Country: "DEU",
					DurationMs: src.Uniform(5, 200), DoH: src.Bool(0.3)}
			case "mtr":
				p := amigo.MTRPayload{Target: "Google"}
				timeout := src.IntBetween(2, 5)
				for ttl, hops := 1, 6+v*12/(payloadVariants-1); ttl <= hops; ttl++ {
					hop := amigo.MTRHop{TTL: ttl}
					if ttl%6 != timeout { // the rest timed out, as on a real path
						hop.Addr = fmt.Sprintf("100.%d.%d.%d", src.Intn(128), src.Intn(256), src.Intn(256))
						hop.RTTms = src.Uniform(1, 250)
					}
					p.Hops = append(p.Hops, hop)
				}
				payload = p
			}
			raw, err := json.Marshal(payload)
			if err != nil {
				return nil, err
			}
			in.payloads[k] = append(in.payloads[k], raw)
		}
	}
	return in, nil
}

// payload is the canned result payload for schedule position pos of ME
// number me.
func (in *drainInputs) payload(me, pos int) json.RawMessage {
	return in.payloads[in.kindOf[pos]][(me*31+pos)%payloadVariants]
}

// result is what the client uploads for task t, which sits at schedule
// position pos of ME number me.
func (in *drainInputs) result(me, pos int, t amigo.Task) amigo.Result {
	return amigo.Result{TaskID: t.ID, ME: in.names[me], Kind: t.Kind, Config: t.Config, OK: true, Payload: in.payload(me, pos)}
}

// drainChecker verifies that a sink (or a WAL replay) holds exactly the
// scheduled results: every (ME, task ID) once, with the content the
// client uploaded. It learns the expected task IDs at schedule time.
// observe is not safe for concurrent use; the server serializes a
// sink's Append calls and a replay is single-threaded.
type drainChecker struct {
	in       *drainInputs
	ids      [][]int    // per ME: every scheduled task ID, ascending
	seen     [][]uint64 // per ME: bitset over ids
	observed int
	bad      int   // results that were unknown, duplicated or altered
	firstBad error // the first of them
}

func newDrainChecker(in *drainInputs) *drainChecker {
	return &drainChecker{in: in, ids: make([][]int, len(in.names)), seen: make([][]uint64, len(in.names))}
}

// expect records one ME's freshly scheduled task IDs. Per-ME IDs only
// ever grow, so ids stays sorted.
func (c *drainChecker) expect(me int, ids []int) {
	c.ids[me] = append(c.ids[me], ids...)
	for len(c.seen[me])*64 < len(c.ids[me]) {
		c.seen[me] = append(c.seen[me], 0)
	}
}

func (c *drainChecker) reject(format string, args ...any) {
	c.bad++
	if c.firstBad == nil {
		c.firstBad = fmt.Errorf(format, args...)
	}
}

func (c *drainChecker) observe(r *amigo.Result) {
	c.observed++
	me, ok := c.in.index[r.ME]
	if !ok {
		c.reject("result for unknown ME %q", r.ME)
		return
	}
	i := sort.SearchInts(c.ids[me], r.TaskID)
	if i == len(c.ids[me]) || c.ids[me][i] != r.TaskID {
		c.reject("%s: result for task %d, which was never scheduled", r.ME, r.TaskID)
		return
	}
	if c.seen[me][i/64]&(1<<(i%64)) != 0 {
		c.reject("%s: task %d delivered twice", r.ME, r.TaskID)
		return
	}
	c.seen[me][i/64] |= 1 << (i % 64)
	pos := i % tasksPerME
	if t := c.in.tmpl[pos]; r.Kind != t.Kind || r.Config != t.Config || !r.OK || r.Error != "" ||
		!bytes.Equal(r.Payload, c.in.payload(me, pos)) {
		c.reject("%s: task %d arrived altered", r.ME, r.TaskID)
	}
}

// check reports whether every expected result was observed exactly once
// and unaltered.
func (c *drainChecker) check() error {
	if c.bad > 0 {
		return fmt.Errorf("%d bad results, first: %w", c.bad, c.firstBad)
	}
	expected := 0
	for me := range c.ids {
		expected += len(c.ids[me])
		for i := range c.ids[me] {
			if c.seen[me][i/64]&(1<<(i%64)) == 0 {
				return fmt.Errorf("%s: task %d was never delivered", c.in.names[me], c.ids[me][i])
			}
		}
	}
	if c.observed != expected {
		return fmt.Errorf("observed %d results, scheduled %d", c.observed, expected)
	}
	return nil
}

// forget clears what was observed (not what is expected), so the same
// checker can verify several replay passes.
func (c *drainChecker) forget() {
	c.observed, c.bad, c.firstBad = 0, 0, nil
	for me := range c.seen {
		clear(c.seen[me])
	}
}

// checkingSink is drain_single's amigo.Sink: it retains nothing (an
// ever-growing MemorySink would turn the run into a slice-growth
// benchmark, ROADMAP item 1) and checks every result on the way past.
type checkingSink struct{ chk *drainChecker }

func (s checkingSink) Append(batch []amigo.Result) {
	for i := range batch {
		s.chk.observe(&batch[i])
	}
}

// epochIters is how many iterations one control plane serves before the
// drain retires it and builds a fresh one, off the clock. An
// amigo.Server keeps every acknowledged task (for Requeue) and every
// idempotency key, and walsink compaction rewrites the whole head of the
// log each time, so an iteration's cost grows with the plane's history:
// without the rotation the median would depend on how many iterations
// happened to fit into the run. The traced run's 1 + tracedIters
// iterations fit in one epoch, so its counters come from one plane.
const epochIters = 8

// plane is one control plane with its listener and clients.
type plane struct {
	chk *drainChecker
	reg *obs.Registry // nil unless traced

	serverFor func(me int) *amigo.Server
	sharded   *fleet.ShardedFleet // drain_sharded_wal only
	walDir    string

	http       *http.Server
	client     *http.Client
	eps        []*amigo.Endpoint // one per ME, kept so the lease ack cursor carries over
	iterations int               // drained on this plane
}

// drain is the drain_single and drain_sharded_wal workloads: nproc
// clients take MEs off a shared counter and, for each, loop
// Endpoint.Lease(32) → canned results → Endpoint.Upload over loopback
// HTTP (Proto v3) until the ME's backlog is empty.
type drain struct {
	cfg     config
	in      *drainInputs
	tr      *tracer
	samples *latencies
	*plane

	walBefore int         // WAL length before the iteration's drive
	clientOK  atomic.Bool // every Lease/Upload of the iteration returned nil
	wal       walStats    // drain_sharded_wal: summed over the retired planes
}

// walStats is the read side of drain_sharded_wal, gathered as each
// plane's WALs are closed, measured on disk and replayed cold.
type walStats struct {
	results, payload, disk int64
	retired                int       // segments compacted away
	shardLens              []int     // results per shard, last plane retired
	replayRates            []float64 // results/s, one per cold replay pass
}

func newDrain(cfg config, tr *tracer, lat *latencies) (*drain, error) {
	in, err := newDrainInputs(cfg.seed, cfg.mes)
	if err != nil {
		return nil, err
	}
	d := &drain{cfg: cfg, in: in, tr: tr, samples: lat}
	d.plane, err = d.newPlane()
	return d, err
}

func (d *drain) newPlane() (*plane, error) {
	p := &plane{chk: newDrainChecker(d.in)}
	if d.tr != nil {
		p.reg = obs.NewRegistry()
	}
	var handler http.Handler
	var err error
	if d.cfg.workload == "drain_sharded_wal" {
		if p.walDir, err = os.MkdirTemp(d.cfg.tmp, "wal-"); err != nil {
			return nil, err
		}
		p.sharded, err = fleet.NewShardedFleet(fleet.ShardedConfig{
			Shards: walShards, WALDir: p.walDir, CompactAfter: 4, Obs: p.reg})
		if err != nil {
			os.RemoveAll(p.walDir)
			return nil, err
		}
		ring := p.sharded.Ring()
		p.serverFor = func(me int) *amigo.Server { return p.sharded.Server(ring.Shard(d.in.names[me])) }
		handler = p.sharded.Handler()
		if d.tr != nil {
			gw := p.sharded.Gateway()
			for i := 0; i < walShards; i++ {
				gw.SetBackend(i, spanHandler{"amigo.handler", gw.Backend(i), d.tr})
			}
			handler = spanHandler{"shard.gateway", handler, d.tr}
		}
	} else {
		single := amigo.NewServer(nil, amigo.WithSink(checkingSink{p.chk}), amigo.WithObs(p.reg))
		p.serverFor = func(int) *amigo.Server { return single }
		handler = single.Handler()
		if d.tr != nil {
			handler = spanHandler{"amigo.handler", handler, d.tr}
		}
	}
	for me, name := range d.in.names {
		p.serverFor(me).Register(name, "PAK")
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.close()
		return nil, err
	}
	p.http = &http.Server{Handler: handler}
	go p.http.Serve(ln) // returns ErrServerClosed once close() shuts the server down

	var transport http.RoundTripper = &http.Transport{MaxConnsPerHost: d.cfg.nproc, MaxIdleConnsPerHost: d.cfg.nproc}
	if d.tr != nil {
		transport = &clientTransport{base: transport, tr: d.tr}
	}
	p.client = &http.Client{Transport: transport}
	for _, name := range d.in.names {
		ep := amigo.NewEndpoint(name, "http://"+ln.Addr().String(), nil, nil)
		ep.Client, ep.Proto, ep.Obs = p.client, amigo.ProtoV3, p.reg
		p.eps = append(p.eps, ep)
	}
	return p, nil
}

// prepare schedules 64 tasks per ME in-process, off the clock, on a
// fresh plane when the current one has served its epoch.
func (d *drain) prepare() error {
	if d.plane.iterations == epochIters {
		if err := d.retire(); err != nil {
			return err
		}
		var err error
		if d.plane, err = d.newPlane(); err != nil {
			return err
		}
	}
	for me, name := range d.in.names {
		ids, err := d.serverFor(me).ScheduleBatch(name, d.in.tmpl)
		if err != nil {
			return err
		}
		d.chk.expect(me, ids)
	}
	d.walBefore = d.walLen()
	return nil
}

func (d *drain) walLen() int {
	n := 0
	for i := 0; d.sharded != nil && i < walShards; i++ {
		n += d.sharded.WAL(i).Len()
	}
	return n
}

func (d *drain) drive() (int, error) {
	d.plane.iterations++
	d.clientOK.Store(true)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, d.cfg.nproc)
	for c := 0; c < d.cfg.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One spanRef per client: its requests are sequential.
			ref := &spanRef{}
			ctx := withSpanRef(context.Background(), ref)
			var results []amigo.Result
			for {
				me := int(next.Add(1)) - 1
				if me >= len(d.eps) {
					return
				}
				if results, errs[c] = d.drainME(me, ctx, ref, results); errs[c] != nil {
					d.clientOK.Store(false)
					return
				}
			}
		}()
	}
	wg.Wait()
	return len(d.eps) * tasksPerME, errors.Join(errs...)
}

// drainME is one ME's closed loop.
func (d *drain) drainME(me int, ctx context.Context, ref *spanRef, results []amigo.Result) ([]amigo.Result, error) {
	ep := d.eps[me]
	if d.tr != nil {
		ep.Ctx = ctx
	}
	for pos := 0; ; {
		ref.req, ref.id = d.tr.newReq(), -1
		ref.id = d.tr.begin("endpoint.lease", routeLease, ref.req, -1)
		start := time.Now()
		tasks, err := ep.Lease(leaseBatch)
		d.samples.add(opLease, time.Since(start))
		d.tr.end(ref.id)
		if err != nil {
			return results, err
		}
		if len(tasks) == 0 {
			if pos != tasksPerME {
				return results, fmt.Errorf("%s: leased %d tasks, scheduled %d", ep.Name, pos, tasksPerME)
			}
			return results, nil
		}
		if pos+len(tasks) > tasksPerME {
			return results, fmt.Errorf("%s: leased more than the %d tasks scheduled", ep.Name, tasksPerME)
		}
		results = results[:0]
		for _, t := range tasks {
			results = append(results, d.in.result(me, pos, t))
			pos++
		}
		ref.req, ref.id = d.tr.newReq(), -1
		ref.id = d.tr.begin("endpoint.upload", routeUpload, ref.req, -1)
		start = time.Now()
		err = ep.Upload(results)
		d.samples.add(opUpload, time.Since(start))
		d.tr.end(ref.id)
		if err != nil {
			return results, err
		}
	}
}

// verify checks the iteration: every client call returned nil and the
// sink holds exactly the scheduled results. drain_single's sink has
// checked each result on arrival; the WALs' content is checked by the
// cold replay when the plane is retired, so here only their length is.
func (d *drain) verify() error {
	if !d.clientOK.Load() {
		return errors.New("a Lease or Upload returned an error")
	}
	if d.sharded != nil {
		if got, want := d.walLen()-d.walBefore, len(d.eps)*tasksPerME; got != want {
			return fmt.Errorf("WALs grew by %d results, uploaded %d", got, want)
		}
		return d.sharded.CompactErr()
	}
	return d.chk.check()
}

// replayPasses is how many cold replays a retired plane's WALs get in
// the traced run, which retires one plane; the timed run retires
// several and replays each once.
const replayPasses = 3

// retire closes the current plane. For drain_sharded_wal that is the
// read side of the workload: close the WALs, measure them on disk, and
// time cold fleet.ReplayLatestWALs passes, each checked against what
// the clients uploaded.
func (d *drain) retire() error {
	p := d.plane
	if p.sharded == nil {
		return p.close()
	}
	p.sharded.WaitIdle()
	d.wal.shardLens = d.wal.shardLens[:0]
	for i := 0; i < walShards; i++ {
		d.wal.retired += p.sharded.WAL(i).Retired()
		d.wal.shardLens = append(d.wal.shardLens, p.sharded.WAL(i).Len())
	}
	err := p.sharded.Close()
	p.sharded = nil // p.close() must not close the WALs twice
	if err != nil {
		return err
	}
	disk, err := dirBytes(p.walDir)
	if err != nil {
		return err
	}
	d.wal.disk += disk
	d.wal.results += int64(p.iterations * len(p.eps) * tasksPerME)
	for me := range p.eps {
		for pos := 0; pos < tasksPerME; pos++ {
			d.wal.payload += int64(p.iterations * len(d.in.payload(me, pos)))
		}
	}
	passes := 1
	if d.tr != nil {
		passes = replayPasses
	}
	for pass := 0; pass < passes; pass++ {
		runtime.GC()
		start := time.Now()
		replayed, err := fleet.ReplayLatestWALs(p.walDir)
		took := time.Since(start)
		if err != nil {
			return err
		}
		p.chk.forget()
		for i := range replayed {
			p.chk.observe(&replayed[i])
		}
		if err := p.chk.check(); err != nil {
			return fmt.Errorf("cold replay of the WALs: %w", err)
		}
		d.wal.replayRates = append(d.wal.replayRates, float64(len(replayed))/took.Seconds())
	}
	return p.close()
}

// finish retires the last plane, so that its WALs are checked too, and
// reports the read side.
func (d *drain) finish(rep *report) error {
	if err := d.retire(); err != nil {
		return err
	}
	if d.wal.results == 0 {
		return nil
	}
	rep.logf("# wal: %d results in %.1f MiB on disk, %d segments retired by compaction, %d cold replays checked, median %.0f results/s",
		d.wal.results, float64(d.wal.disk)/(1<<20), d.wal.retired, len(d.wal.replayRates), median(d.wal.replayRates))
	rep.set("walsink.replay_results_per_s", median(d.wal.replayRates))
	rep.set("walsink.disk_bytes_per_result", float64(d.wal.disk)/float64(d.wal.results))
	rep.set("walsink.disk_bytes_per_payload_byte", float64(d.wal.disk)/float64(d.wal.payload))
	return nil
}

func (d *drain) close() error { return d.plane.close() }

// close releases the plane's listener, connections, WALs and temp dir;
// it is safe to call twice.
func (p *plane) close() error {
	var errs []error
	if p.http != nil {
		errs = append(errs, p.http.Close())
	}
	if p.client != nil {
		p.client.CloseIdleConnections()
	}
	if p.sharded != nil {
		errs = append(errs, p.sharded.Close())
		p.sharded = nil
	}
	if p.walDir != "" {
		errs = append(errs, os.RemoveAll(p.walDir))
	}
	return errors.Join(errs...)
}
