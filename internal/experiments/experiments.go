// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulated world: the infrastructure inventory
// (Table 2, Figures 3-5), the path analysis (Figures 6-10), the
// performance comparison (Figures 11-14, 20), user experience
// (Figure 15), and the marketplace economics (Figures 16-19), plus the
// ablations DESIGN.md calls out.
//
// A Runner owns the world and memoizes the raw measurement datasets so
// figures that share inputs (e.g. Figures 7/8/9/10 all come from the
// traceroute campaign) don't re-measure.
//
// # Parallel campaigns
//
// Each campaign enumerates its work as (country, SIM kind,
// target/provider, rep) units, pre-forks one labeled rng.Source per unit
// in canonical order, and executes the units on a bounded worker pool
// (Config.Workers, default GOMAXPROCS); see parallel.go. Observations
// are merged back in canonical unit order, so the memoized datasets are
// byte-identical no matter the worker count or GOMAXPROCS.
package experiments

import (
	"fmt"
	"slices"
	"sync"

	"roamsim/internal/airalo"
	"roamsim/internal/core"
	"roamsim/internal/fleet"
	"roamsim/internal/ipx"
	"roamsim/internal/measure"
	"roamsim/internal/mno"
	"roamsim/internal/rng"
	"roamsim/internal/video"
)

// Config sizes the measurement campaigns.
type Config struct {
	// Seed is taken as given: 0 is a seed of its own, not the default.
	Seed                 int64
	TracesPerCountry     int // per (country, config, target)
	SpeedtestsPerCountry int // per (country, config)
	CDNFetchesPerCountry int // per (country, config, provider)
	DNSPerCountry        int // per (country, config)
	VideosPerCountry     int // per (country, config)
	WebMeasurements      int // per web-campaign country

	// Workers bounds the campaign worker pool. 0 (the default) means
	// GOMAXPROCS at campaign time; 1 forces serial execution. Results
	// are identical for every value — see the package doc.
	Workers int
}

// DefaultConfig returns campaign sizes comparable to Table 4's counts.
func DefaultConfig() Config {
	return Config{
		Seed:                 42,
		TracesPerCountry:     40,
		SpeedtestsPerCountry: 60,
		CDNFetchesPerCountry: 25,
		DNSPerCountry:        40,
		VideosPerCountry:     12,
		WebMeasurements:      9,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.TracesPerCountry == 0 {
		c.TracesPerCountry = d.TracesPerCountry
	}
	if c.SpeedtestsPerCountry == 0 {
		c.SpeedtestsPerCountry = d.SpeedtestsPerCountry
	}
	if c.CDNFetchesPerCountry == 0 {
		c.CDNFetchesPerCountry = d.CDNFetchesPerCountry
	}
	if c.DNSPerCountry == 0 {
		c.DNSPerCountry = d.DNSPerCountry
	}
	if c.VideosPerCountry == 0 {
		c.VideosPerCountry = d.VideosPerCountry
	}
	if c.WebMeasurements == 0 {
		c.WebMeasurements = d.WebMeasurements
	}
	return c
}

// Runner executes and memoizes the measurement campaigns. Methods are
// safe for concurrent use: memoization is guarded by a mutex, and the
// campaigns themselves parallelize internally.
type Runner struct {
	W   *airalo.World
	Cfg Config

	mu     sync.Mutex
	traces []TraceObs // guarded by mu
	speeds []SpeedObs // guarded by mu
	cdns   []CDNObs   // guarded by mu
	dnses  []DNSObs   // guarded by mu
	videos []VideoObs // guarded by mu
}

// NewRunner builds a world and runner from the config.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	w, err := airalo.Build(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Runner{W: w, Cfg: cfg}, nil
}

// NewRunnerWith reuses an existing world.
func NewRunnerWith(w *airalo.World, cfg Config) *Runner {
	return &Runner{W: w, Cfg: cfg.withDefaults()}
}

// TraceObs is one demarcated traceroute observation.
type TraceObs struct {
	ISO      string
	Kind     mno.SIMKind
	Arch     ipx.Architecture
	Target   string
	Provider string // PGW provider org (from demarcation)
	PA       core.PathAnalysis
	RAT      mno.RAT
}

// SpeedObs is one speedtest observation.
type SpeedObs struct {
	ISO        string
	Kind       mno.SIMKind
	Arch       ipx.Architecture
	RAT        mno.RAT
	CQI        int
	Down, Up   float64
	LatencyMs  float64
	ServerCity string
}

// CDNObs is one CDN fetch observation.
type CDNObs struct {
	ISO      string
	Kind     mno.SIMKind
	Arch     ipx.Architecture
	Provider string
	TotalMs  float64
	Cache    string
}

// DNSObs is one DNS lookup observation.
type DNSObs struct {
	ISO             string
	Kind            mno.SIMKind
	Arch            ipx.Architecture
	DurationMs      float64
	DoH             bool
	ResolverASN     uint32
	ResolverCountry string
	PGWCountry      string
}

// VideoObs is one video session observation.
type VideoObs struct {
	ISO      string
	Kind     mno.SIMKind
	Arch     ipx.Architecture
	Dominant string
	Shares   map[string]float64
}

// kindsFor returns the configurations measured in a country.
func kindsFor(d *airalo.Deployment) []mno.SIMKind {
	if d.SIMProfile != nil {
		return []mno.SIMKind{mno.PhysicalSIM, mno.ESIM}
	}
	return []mno.SIMKind{mno.ESIM}
}

func attach(d *airalo.Deployment, kind mno.SIMKind, src *rng.Source) (*airalo.Session, error) {
	if kind == mno.PhysicalSIM {
		return d.AttachSIM(src)
	}
	return d.AttachESIM(src)
}

// observeFunc measures one attached session; target is "" in a campaign
// without targets.
type observeFunc[T any] func(iso string, kind mno.SIMKind, s *airalo.Session, target string, src *rng.Source) ([]T, error)

// collect runs one device campaign on the rng stream forked from the
// seed under stream: for every country of isos, every SIM kind measured
// there, every target (none when targets is nil) and reps repetitions,
// one unit that attaches a session and observes it. A unit's label is
// "ISO/kind/target/rep", or "ISO/kind/rep" without targets.
func collect[T any](r *Runner, stream string, isos, targets []string, reps int, observe observeFunc[T]) ([]T, error) {
	if targets == nil {
		targets = []string{""}
	}
	var units []unit[T]
	for _, iso := range isos {
		d := r.W.Deployments[iso]
		for _, kind := range kindsFor(d) {
			for _, target := range targets {
				for i := 0; i < reps; i++ {
					label := fmt.Sprintf("%s/%s/%d", iso, kind, i)
					if target != "" {
						label = fmt.Sprintf("%s/%s/%s/%d", iso, kind, target, i)
					}
					units = append(units, unit[T]{
						label: label,
						run: func(src *rng.Source) ([]T, error) {
							s, err := attach(d, kind, src)
							if err != nil {
								return nil, err
							}
							return observe(iso, kind, s, target, src)
						},
					})
				}
			}
		}
	}
	return runUnits(rng.New(r.Cfg.Seed).Fork(stream), r.Cfg.workers(), units)
}

// Traces runs (or returns the memoized) traceroute campaign: every
// device-campaign country, both configurations, Google and Facebook.
func (r *Runner) Traces() ([]TraceObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces != nil {
		return r.traces, nil
	}
	out, err := collect(r, "traces", fleet.DeviceCountries, []string{"Google", "Facebook"}, r.Cfg.TracesPerCountry,
		func(iso string, kind mno.SIMKind, s *airalo.Session, target string, src *rng.Source) ([]TraceObs, error) {
			tr, err := measure.Traceroute(s, target, src)
			if err != nil {
				return nil, err
			}
			pa, err := core.Demarcate(tr.Raw, r.W.Reg)
			if err != nil {
				// Fully silent paths happen (e.g. a mute CG-NAT plus
				// unlucky ICMP); skip like the paper's parser would.
				return nil, nil
			}
			return []TraceObs{{
				ISO: iso, Kind: kind, Arch: s.Arch, Target: target,
				Provider: pa.PGW.AS.Org, PA: pa,
				RAT: s.Radio.Sample(src).RAT,
			}}, nil
		})
	r.traces = out // nil on error: runUnits discards a failed campaign
	return out, err
}

// Speedtests runs (or returns) the Ookla campaign.
func (r *Runner) Speedtests() ([]SpeedObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.speeds != nil {
		return r.speeds, nil
	}
	out, err := collect(r, "speedtests", fleet.DeviceCountries, nil, r.Cfg.SpeedtestsPerCountry,
		func(iso string, kind mno.SIMKind, s *airalo.Session, _ string, src *rng.Source) ([]SpeedObs, error) {
			res, err := measure.Speedtest(s, src)
			if err != nil {
				return nil, err
			}
			return []SpeedObs{{
				ISO: iso, Kind: kind, Arch: s.Arch,
				RAT: res.Radio.RAT, CQI: res.Radio.CQI,
				Down: res.DownMbps, Up: res.UpMbps,
				LatencyMs: res.LatencyMs, ServerCity: res.ServerCity,
			}}, nil
		})
	r.speeds = out
	return out, err
}

// CDNFetches runs (or returns) the five-provider CDN campaign.
func (r *Runner) CDNFetches() ([]CDNObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cdns != nil {
		return r.cdns, nil
	}
	providers := []string{"Cloudflare", "Google CDN", "jQuery CDN", "jsDelivr", "Microsoft Ajax"}
	out, err := collect(r, "cdn", fleet.DeviceCountries, providers, r.Cfg.CDNFetchesPerCountry,
		func(iso string, kind mno.SIMKind, s *airalo.Session, prov string, src *rng.Source) ([]CDNObs, error) {
			res, err := measure.CDNFetch(s, prov, src)
			if err != nil {
				return nil, err
			}
			return []CDNObs{{
				ISO: iso, Kind: kind, Arch: s.Arch,
				Provider: prov, TotalMs: res.TotalMs, Cache: string(res.Cache),
			}}, nil
		})
	r.cdns = out
	return out, err
}

// DNSLookups runs (or returns) the resolver campaign.
func (r *Runner) DNSLookups() ([]DNSObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dnses != nil {
		return r.dnses, nil
	}
	out, err := collect(r, "dns", fleet.DeviceCountries, nil, r.Cfg.DNSPerCountry,
		func(iso string, kind mno.SIMKind, s *airalo.Session, _ string, src *rng.Source) ([]DNSObs, error) {
			res, err := measure.DNSLookup(s, src)
			if err != nil {
				return nil, err
			}
			return []DNSObs{{
				ISO: iso, Kind: kind, Arch: s.Arch,
				DurationMs: res.DurationMs, DoH: res.DoH,
				ResolverASN:     uint32(res.Resolver.ASN),
				ResolverCountry: res.Resolver.Country,
				PGWCountry:      s.Site.Country,
			}}, nil
		})
	r.dnses = out
	return out, err
}

// Videos runs (or returns) the YouTube campaign. Spain and the UK are
// excluded as in the paper (insufficient samples there).
func (r *Runner) Videos() ([]VideoObs, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.videos != nil {
		return r.videos, nil
	}
	isos := slices.DeleteFunc(slices.Clone(fleet.DeviceCountries), func(iso string) bool { return iso == "ESP" || iso == "GBR" })
	out, err := collect(r, "video", isos, nil, r.Cfg.VideosPerCountry,
		func(iso string, kind mno.SIMKind, s *airalo.Session, _ string, src *rng.Source) ([]VideoObs, error) {
			st, err := measure.StreamVideo(s, video.Config{DurationSec: 120}, src)
			if err != nil {
				return nil, err
			}
			shares := map[string]float64{}
			for name := range st.SecondsAt {
				shares[name] = st.Share(name)
			}
			return []VideoObs{{
				ISO: iso, Kind: kind, Arch: s.Arch,
				Dominant: st.DominantResolution, Shares: shares,
			}}, nil
		})
	r.videos = out
	return out, err
}

// usable applies the CQI filter of Section 5.1.
func usable(obs []SpeedObs) []SpeedObs {
	var out []SpeedObs
	for _, o := range obs {
		if o.CQI >= mno.MinUsableCQI {
			out = append(out, o)
		}
	}
	return out
}

func configLabel(kind mno.SIMKind, arch ipx.Architecture) string {
	if kind == mno.PhysicalSIM {
		return "SIM"
	}
	return fmt.Sprintf("eSIM/%s", arch)
}
