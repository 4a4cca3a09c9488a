package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/fleet"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
	"roamsim/internal/vclock"
)

// campaign is the campaign_real and campaign_virtual_chaos workloads:
// the paper's device campaign at fleet scale (ten countries × 100 MEs ×
// 18 tasks), run by fleet.Driver against a fresh single control server
// per iteration and folded into a dataset by fleet.Ingest. The virtual
// variant runs the same plan on a vclock.Virtual with realized task
// durations and chaos.Light faults on both sides of the wire.
type campaign struct {
	cfg     config
	virtual bool
	tr      *tracer
	world   *airalo.World
	plan    fleet.Plan
	oracle  [sha256.Size]byte // dataset hash of the serial fleet.RunInProcess run
	samples *latencies

	// Built by prepare, released by verify (the registry stays readable
	// until the next prepare).
	reg       *obs.Registry // nil unless traced
	http      *http.Server
	transport *http.Transport
	driver    *fleet.Driver
	inj       *chaos.Injector
	stopGuard func() bool

	// Left by drive for verify.
	camp    *fleet.Campaign
	dataset *fleet.Dataset

	// Must repeat exactly across the iterations of campaign_virtual_chaos.
	makespan time.Duration
	faults   int

	// Traced runs only.
	goroutinesPeak int
	iterations     int       // driven so far, the warm-up included
	routes0        [3]uint64 // netsim route-cache counters when the warm-up ended
}

func campaignPlan(cfg config) fleet.Plan {
	plan := fleet.DeviceCampaignPlan()
	plan.MEsPerCountry, plan.Reps = cfg.mesPerCountry, 1
	return plan
}

// datasetHash is the identity the campaign checks compare: the JSON of
// the ingested dataset, which fleet.Ingest makes independent of upload
// order, worker count, protocol, clock and injected faults.
func datasetHash(ds *fleet.Dataset) ([sha256.Size]byte, error) {
	blob, err := json.Marshal(ds)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(blob), nil
}

func newCampaign(cfg config, tr *tracer, lat *latencies) (*campaign, error) {
	c := &campaign{cfg: cfg, virtual: cfg.workload == "campaign_virtual_chaos", tr: tr,
		plan: campaignPlan(cfg), samples: lat}
	var err error
	if c.world, err = airalo.Build(cfg.seed); err != nil {
		return nil, err
	}
	serial, err := fleet.RunInProcess(c.world, c.plan, cfg.seed, "table4", true)
	if err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	ds, err := fleet.Ingest(c.world.Reg, serial)
	if err != nil {
		return nil, err
	}
	if c.oracle, err = datasetHash(ds); err != nil {
		return nil, err
	}
	if err := checkCampaign(serial, ds, c.oracle); err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	return c, nil
}

// prepare stands up a fresh control server, with the admin routes the
// driver's schedule POST and fetch-back need, on a loopback listener.
func (c *campaign) prepare() error {
	if c.iterations == 1 {
		c.routes0[0], c.routes0[1], c.routes0[2] = c.world.Net.RouteCacheStats()
	}
	var opts []amigo.Option
	c.reg = nil
	if c.tr != nil {
		c.reg = obs.NewRegistry()
		fleet.RegisterNetObs(c.reg, c.world.Net)
		opts = append(opts, amigo.WithObs(c.reg))
	}
	srv := amigo.NewServer(nil, opts...)
	handler := shard.Mount(srv.Handler(), srv.AdminHandler())
	c.driver = &fleet.Driver{Seed: c.cfg.seed, Workers: c.cfg.nproc, Proto: amigo.ProtoV3,
		StreamLabel: "table4", Heartbeat: true, Obs: c.reg}
	if c.virtual {
		clock := vclock.NewVirtual()
		// A registered waiter blocked off the clock would freeze virtual
		// time; fail with the waiter dump instead of hanging.
		c.stopGuard = clock.StallGuard(60*time.Second, nil)
		c.inj = chaos.NewInjector(c.cfg.seed, chaos.Light())
		c.driver.Clock, c.driver.Realize, c.driver.Chaos = clock, true, c.inj
		handler = c.inj.Middleware(handler)
	}
	if c.tr != nil {
		handler = spanHandler{"amigo.handler", handler, c.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.http = &http.Server{Handler: handler}
	go c.http.Serve(ln) // returns ErrServerClosed once verify shuts the server down
	c.transport = &http.Transport{MaxConnsPerHost: c.cfg.nproc, MaxIdleConnsPerHost: c.cfg.nproc}
	c.driver.BaseURL = "http://" + ln.Addr().String()
	c.driver.Client = &http.Client{Transport: &clientTransport{base: c.transport, tr: c.tr, lat: c.samples}}
	return nil
}

// drive is what a user runs: the driver's campaign plus the ingest.
func (c *campaign) drive() (int, error) {
	scheduled := c.plan.MECount() * c.plan.TasksPerME()
	stop := c.sampleGoroutines()
	defer stop()
	c.camp, c.dataset = nil, nil
	c.iterations++

	id := c.tr.begin("fleet.run", "", 0, -1)
	camp, err := c.driver.Run(c.world, c.plan)
	c.tr.end(id)
	if err != nil {
		return scheduled, err
	}
	id = c.tr.begin("fleet.ingest", "", 0, -1)
	ds, err := fleet.Ingest(c.world.Reg, camp)
	c.tr.end(id)
	c.camp, c.dataset = camp, ds
	return scheduled, err
}

// sampleGoroutines records the peak goroutine count of a traced
// iteration (≈8 on the real clock, one per ME on the virtual one).
func (c *campaign) sampleGoroutines() (stop func()) {
	if c.tr == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				c.goroutinesPeak = max(c.goroutinesPeak, runtime.NumGoroutine())
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// checkCampaign verifies that a campaign's uploaded results are exactly
// its schedule — every (ME, task) once — and that ds, their ingested
// dataset, has the hash want. The scan is needed beside the hash:
// Ingest deduplicates on (ME, task ID) by design, so a duplicated upload
// leaves the dataset unchanged.
func checkCampaign(camp *fleet.Campaign, ds *fleet.Dataset, want [sha256.Size]byte) error {
	if got := len(camp.Results); got != camp.Stats.TasksScheduled {
		return fmt.Errorf("campaign fetched back %d results, scheduled %d", got, camp.Stats.TasksScheduled)
	}
	type key struct {
		me   string
		task int
	}
	seen := make(map[key]struct{}, len(camp.Results))
	for _, r := range camp.Results {
		k := key{r.ME, r.TaskID}
		if _, dup := seen[k]; dup {
			return fmt.Errorf("%s: task %d uploaded twice", r.ME, r.TaskID)
		}
		seen[k] = struct{}{}
	}
	got, err := datasetHash(ds)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("dataset hash %x differs from the serial oracle's %x", got[:8], want[:8])
	}
	return nil
}

// verify compares the iteration against the serial oracle and releases
// the server, listener and connections prepare built.
func (c *campaign) verify() error {
	var errs []error
	if c.camp != nil {
		errs = append(errs, checkCampaign(c.camp, c.dataset, c.oracle))
		if c.virtual {
			errs = append(errs, c.checkRepeats(c.camp.Stats.Elapsed, len(c.inj.Events())))
		}
	}
	if c.stopGuard != nil {
		c.stopGuard()
		c.stopGuard = nil
	}
	errs = append(errs, c.http.Close())
	c.transport.CloseIdleConnections()
	return errors.Join(errs...)
}

// checkRepeats holds campaign_virtual_chaos to its determinism claim:
// the virtual makespan and the number of injected faults are functions
// of (seed, plan) alone, so every iteration must report the same ones.
func (c *campaign) checkRepeats(makespan time.Duration, faults int) error {
	if faults == 0 {
		return errors.New("chaos injected no faults; the iteration exercised nothing")
	}
	if c.faults == 0 {
		c.makespan, c.faults = makespan, faults
		return nil
	}
	if makespan != c.makespan || faults != c.faults {
		return fmt.Errorf("virtual makespan %v with %d faults, earlier iterations had %v with %d",
			makespan, faults, c.makespan, c.faults)
	}
	return nil
}

func (c *campaign) finish(rep *report) error {
	if c.virtual {
		rep.logf("# virtual makespan %v, %d faults injected, identical in every iteration", c.makespan, c.faults)
		rep.set("vclock.virtual_makespan_s", c.makespan.Seconds())
		rep.set("chaos.faults_injected", float64(c.faults))
	}
	rep.logf("# dataset sha256 %x = serial oracle (fleet.RunInProcess + Ingest)", c.oracle[:8])
	return nil
}

// close has nothing to release: verify tears down each iteration's
// server and connections.
func (c *campaign) close() error { return nil }
