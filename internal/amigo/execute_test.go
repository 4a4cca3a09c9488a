package amigo

import (
	"testing"

	"roamsim/internal/rng"
)

// runBudget is what Endpoint.run may allocate per task kind, the batch's
// payload slab aside: the session and what the observation keeps (the
// speedtest's public IP string, the mtr hop slice, the video session's
// two rung maps). A roaming eSIM allocates what a physical SIM does.
var runBudget = map[string]float64{"speedtest": 2, "mtr": 2, "cdn": 1, "video": 5}

// runner returns one Endpoint.run of task in the deployment iso, warmed
// until the routes it touches are composed and its scratch is large
// enough; each call encodes into the emptied scratch, so what it
// allocates is what executing the task itself allocates.
func runner(tb testing.TB, iso string, task Task) func() {
	ep := NewEndpoint("me-"+iso, "", world(tb).Deployments[iso], rng.New(9))
	run := func() {
		if ep.scratch != nil {
			*ep.scratch = (*ep.scratch)[:0]
		}
		if res, _ := ep.run(task); !res.OK {
			tb.Fatalf("%s %s/%s: %s", iso, task.Kind, task.Config, res.Error)
		}
	}
	for i := 0; i < 200; i++ { // every breakout's route composed and cached
		run()
	}
	return run
}

// TestRunAllocsPerKind: executing a task allocates what its observation
// keeps and nothing per call besides — no breakout table, resolver copy,
// payload box, header map or ladder copy. DEU and PAK each run a
// physical SIM and a roaming eSIM; every
// (kind, target, config) of the device schedule is one row. At 212d635
// the counts were speedtest and mtr 6 / 5 / 6, cdn 8 / 7 / 8 and video
// 13 / 12 / 13 (DEU sim / DEU esim / PAK esim).
func TestRunAllocsPerKind(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	type row struct {
		iso  string
		task Task
	}
	seen := map[row]bool{}
	for _, iso := range []string{"DEU", "PAK"} {
		for _, task := range deviceSchedule() {
			if seen[row{iso, task}] {
				continue // the schedule's repetitions
			}
			seen[row{iso, task}] = true
			got := testing.AllocsPerRun(200, runner(t, iso, task))
			t.Logf("%s %s %s/%s: %.0f allocations", iso, task.Kind, task.Target, task.Config, got)
			if budget := runBudget[task.Kind]; got > budget {
				t.Errorf("%s %s %s/%s: %.0f allocations per run, budget %.0f", iso, task.Kind, task.Target, task.Config, got, budget)
			}
		}
	}
}

// BenchmarkRun is one task of each kind executed by a PAK eSIM endpoint:
// attach (breakout draw), measure, encode.
func BenchmarkRun(b *testing.B) {
	for _, task := range []Task{{Kind: "speedtest"}, {Kind: "mtr", Target: "Google"},
		{Kind: "cdn", Target: "Cloudflare"}, {Kind: "dns"}, {Kind: "video"}} {
		task.Config = "esim"
		b.Run(task.Kind, func(b *testing.B) {
			run := runner(b, "PAK", task)
			b.ReportAllocs()
			for b.Loop() {
				run()
			}
		})
	}
}
