// Package fleet orchestrates fleet-scale AmiGo measurement campaigns
// over the real HTTP control plane. The paper's testbed topped out at
// ten rooted phones; fleet drives thousands of concurrent simulated
// measurement endpoints (MEs) through the same register → lease →
// execute → upload protocol (internal/amigo, v3 batch routes) and
// folds the uploaded payloads back into core dataset records, so Table
// 4 counts and Figure 11-style RTT aggregates can be regenerated from
// fleet output and cross-checked against the in-process campaign.
//
// The pieces:
//
//   - A Plan expands (countries × SIM configurations × task kinds ×
//     reps) into one deterministic task schedule per ME (Schedules).
//   - A Driver runs every ME schedule against a live control server on
//     a bounded worker pool. Per-ME random streams are pre-forked
//     serially in canonical schedule order before any worker starts
//     (the rng pre-fork-then-spawn discipline), and each ME executes
//     its own tasks in queue order, so the uploaded payloads are
//     byte-identical for any worker count.
//   - Ingest parses the uploaded amigo payloads into typed dataset
//     records (re-demarcating traceroutes with internal/core) after
//     sorting results into canonical (ME, task) order, making the
//     ingested dataset deterministic even though uploads interleave.
//
// RunInProcess executes the same plan serially, one task per lease, on
// direct calls into a private server — the shape of the paper's original
// campaign, and the socket-free oracle the equivalence tests compare against.
package fleet

import (
	"fmt"

	"roamsim/internal/amigo"
)

// DeviceCountries are the paper's ten device-campaign deployments in
// display order (Table 4).
var DeviceCountries = []string{"GEO", "DEU", "KOR", "PAK", "QAT", "SAU", "ESP", "THA", "ARE", "GBR"}

// DeviceCampaignTools are Table 4's nine instrumentation columns as
// task templates (Config is filled per schedule entry).
var DeviceCampaignTools = []amigo.Task{
	{Kind: "speedtest"},
	{Kind: "mtr", Target: "Facebook"},
	{Kind: "mtr", Target: "Google"}, // YouTube also resolves to Google edges
	{Kind: "cdn", Target: "Cloudflare"},
	{Kind: "cdn", Target: "Google CDN"},
	{Kind: "cdn", Target: "jQuery CDN"},
	{Kind: "cdn", Target: "jsDelivr"},
	{Kind: "cdn", Target: "Microsoft Ajax"},
	{Kind: "video"},
}

// Plan describes a campaign: which countries to deploy MEs in, how many
// MEs per country, and the per-ME task schedule as task templates ×
// SIM configurations × reps.
type Plan struct {
	// Countries lists deployment countries (ISO3). Default: the
	// paper's ten device-campaign countries.
	Countries []string
	// MEsPerCountry is the number of simulated MEs per country
	// (default 1; the paper had one phone per country).
	MEsPerCountry int
	// Tasks are the base task templates (Kind + Target). Default:
	// Table 4's nine tools.
	Tasks []amigo.Task
	// Configs are the SIM profiles to measure ("sim", "esim").
	// Default: both, as in the device campaign.
	Configs []string
	// Reps repeats each (task, config) pair (default 1).
	Reps int
}

// DeviceCampaignPlan mirrors the paper's Table 4 schedule: ten
// countries, one ME each, nine tools × both configurations × four reps.
func DeviceCampaignPlan() Plan {
	return Plan{
		Countries:     DeviceCountries,
		MEsPerCountry: 1,
		Tasks:         DeviceCampaignTools,
		Configs:       []string{"sim", "esim"},
		Reps:          4,
	}
}

func (p Plan) withDefaults() Plan {
	if len(p.Countries) == 0 {
		p.Countries = DeviceCountries
	}
	if p.MEsPerCountry <= 0 {
		p.MEsPerCountry = 1
	}
	if len(p.Tasks) == 0 {
		p.Tasks = DeviceCampaignTools
	}
	if len(p.Configs) == 0 {
		p.Configs = []string{"sim", "esim"}
	}
	if p.Reps <= 0 {
		p.Reps = 1
	}
	return p
}

// TasksPerME is the schedule length of one ME.
func (p Plan) TasksPerME() int {
	p = p.withDefaults()
	return len(p.Tasks) * len(p.Configs) * p.Reps
}

// MECount is the total fleet size.
func (p Plan) MECount() int {
	p = p.withDefaults()
	return len(p.Countries) * p.MEsPerCountry
}

// MESchedule is the expanded task list for one ME.
type MESchedule struct {
	// Name is the ME's wire identity ("me-PAK", "me-PAK-3").
	Name string
	// Label is the ME's rng fork label; with one ME per country it is
	// the bare ISO code, matching the in-process campaign's forks.
	Label string
	// ISO is the deployment country.
	ISO string
	// Tasks is the full schedule in execution order.
	Tasks []amigo.Task
}

// Schedules expands the plan into per-ME schedules in canonical order:
// countries in plan order, ME indices within a country, and per ME the
// tasks as Tasks × Configs × Reps (task kind outermost, rep innermost —
// the same nesting the paper's device campaign used).
func (p Plan) Schedules() []MESchedule {
	p = p.withDefaults()
	out := make([]MESchedule, 0, p.MECount())
	for _, iso := range p.Countries {
		for m := 0; m < p.MEsPerCountry; m++ {
			sched := MESchedule{Name: "me-" + iso, Label: iso, ISO: iso}
			if p.MEsPerCountry > 1 {
				sched.Name = fmt.Sprintf("me-%s-%d", iso, m)
				sched.Label = fmt.Sprintf("%s/%d", iso, m)
			}
			tasks := make([]amigo.Task, 0, p.TasksPerME())
			for _, base := range p.Tasks {
				for _, config := range p.Configs {
					for rep := 0; rep < p.Reps; rep++ {
						t := base
						t.Config = config
						tasks = append(tasks, t)
					}
				}
			}
			sched.Tasks = tasks
			out = append(out, sched)
		}
	}
	return out
}
