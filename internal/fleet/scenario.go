package fleet

import (
	"net"
	"net/http"
	"sync"
	"time"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/vclock"
)

// Scenario is one fleet campaign as a value: the plan, the driver's and
// the control plane's settings, and the faults, clock and
// instrumentation it runs under. Run is the one place a scenario becomes
// a campaign: roam-fleet parses its flags into a Scenario, and every row
// of the proof table is one.
type Scenario struct {
	Plan Plan
	// Seed, StreamLabel, Workers, LeaseBatch, Realize, Straggler and
	// RestartBudget are the Driver's fields of those names.
	Seed          int64
	StreamLabel   string
	Workers       int
	LeaseBatch    int
	Realize       bool
	Straggler     time.Duration
	RestartBudget int
	// Server, when set, is a running control plane to drive; otherwise
	// Run self-hosts Plane, setting its Chaos and Obs.
	Server string
	Plane  ShardedConfig
	// Chaos, unless zero, injects faults drawn from ChaosSeed on both
	// sides of the wire and, through Plane, into the shards.
	Chaos     chaos.Config
	ChaosSeed int64
	// Metrics instruments the plane, the driver, every ME and the world's
	// route cache into one registry.
	Metrics bool
	// Virtual runs the campaign on a fresh discrete-event clock.
	Virtual bool

	// stallGuard, when positive, arms the virtual clock's StallGuard: a
	// test harness that blocks a registered waiter off the clock fails
	// with the parked-waiter dump instead of hanging.
	stallGuard time.Duration
}

// Outcome is what a scenario's run leaves for its caller to print or
// check. Fleet is nil unless the self-hosted plane is sharded; Chaos,
// Obs and Clock are nil unless the scenario asked for them.
type Outcome struct {
	Campaign *Campaign
	Dataset  *Dataset
	URL      string
	Fleet    *ShardedFleet
	Chaos    *chaos.Injector
	Obs      *obs.Registry
	Clock    *vclock.Virtual
	// Close stops the self-hosted server and closes the plane's WALs.
	Close func() error

	srv *amigo.Server // the self-hosted single server, nil unless Host chose one
}

// Run builds the scenario's injector, registry and clock fresh, serves
// its plane on a loopback port (unless Server names one), drives the
// plan against it, waits out a reshard the last upload may have fired,
// fails on a reshard or compaction error, and ingests the results. On an
// error the self-hosted plane is already closed.
func (s Scenario) Run(w *airalo.World) (*Outcome, error) {
	o := &Outcome{URL: s.Server, Close: func() error { return nil }}
	d := &Driver{Seed: s.Seed, StreamLabel: s.StreamLabel, Heartbeat: true, Workers: s.Workers,
		LeaseBatch: s.LeaseBatch, Realize: s.Realize, Straggler: s.Straggler, RestartBudget: s.RestartBudget}
	if s.Chaos != (chaos.Config{}) {
		o.Chaos = chaos.NewInjector(s.ChaosSeed, s.Chaos)
		d.Chaos, s.Plane.Chaos = o.Chaos, o.Chaos
	}
	if s.Metrics {
		o.Obs = obs.NewRegistry()
		RegisterNetObs(o.Obs, w.Net)
		d.Obs, s.Plane.Obs = o.Obs, o.Obs
	}
	if s.Virtual {
		o.Clock = vclock.NewVirtual()
		d.Clock = o.Clock
		if s.stallGuard > 0 {
			defer o.Clock.StallGuard(s.stallGuard, nil)()
		}
	}
	if s.Server == "" {
		if err := o.serve(s.Plane); err != nil {
			return nil, err
		}
	}
	d.BaseURL = o.URL
	camp, err := d.Run(w, s.Plan)
	if f := o.Fleet; err == nil && f != nil {
		f.WaitIdle()
		if err = f.ReshardErr(); err == nil {
			err = f.CompactErr()
		}
	}
	if err == nil {
		o.Campaign = camp
		o.Dataset, err = Ingest(w.Reg, camp)
	}
	if err != nil {
		o.Close()
		return nil, err
	}
	return o, nil
}

// serve hosts the plane cfg describes on an ephemeral loopback port.
func (o *Outcome) serve(cfg ShardedConfig) error {
	h, f, srv, err := Host(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if f != nil {
			f.Close()
		}
		return err
	}
	hs := &http.Server{Handler: h, ReadTimeout: 15 * time.Second, ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout: 30 * time.Second, IdleTimeout: 120 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	o.URL, o.Fleet, o.srv = "http://"+ln.Addr().String(), f, srv
	o.Close = sync.OnceValue(func() error {
		hs.Close()
		<-served
		if f != nil {
			return f.Close()
		}
		return nil
	})
	return nil
}
