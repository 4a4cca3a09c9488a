package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"

	"roamsim/internal/airalo"
	"roamsim/internal/amigo"
	"roamsim/internal/fleet"
)

// declared is the part of BENCHMARK.json the tests hold the benchmark to.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestQuickEmitsDeclaredMetrics is the -quick pass: every workload, timed
// and traced, must pass its correctness checks and emit exactly the
// metrics BENCHMARK.json declares for that kind of run, once each,
// finite, with the declared unit.
func TestQuickEmitsDeclaredMetrics(t *testing.T) {
	decl := readDeclared(t)
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadNames))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, w := range decl.Workloads {
		if !knownWorkload(w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			var log bytes.Buffer
			rep, err := run(newConfig(w.Name, 42, 0, traced, true), &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, log.String())
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, log.String())
			}
			// The line the driver reads is the JSON of the report: check
			// that, not the struct.
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.Name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: declared metric %s is not emitted", w.Name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v is not finite", w.Name, m.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
				if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("metric %q with unit %q is outside the BENCHMARK.json alphabet", m.Name, m.Unit)
				}
			}
		}
	}
}

// drainFixture is a small schedule with the results a correct drain
// would put in the sink.
func drainFixture(t *testing.T) (*drainChecker, []amigo.Result) {
	t.Helper()
	in, err := newDrainInputs(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	chk := newDrainChecker(in)
	var results []amigo.Result
	id := 0
	for iter := 0; iter < 2; iter++ {
		for me := range in.names {
			var ids []int
			for pos, task := range in.tmpl {
				id++
				ids = append(ids, id)
				task.ID = id
				results = append(results, in.result(me, pos, task))
			}
			chk.expect(me, ids)
		}
	}
	return chk, results
}

func checkDrain(chk *drainChecker, results []amigo.Result) error {
	chk.forget()
	checkingSink{chk}.Append(results)
	return chk.check()
}

// TestDrainCheckCatches: the drain check must pass the faithful sink
// and fail one with a result dropped, duplicated or altered by one byte.
func TestDrainCheckCatches(t *testing.T) {
	chk, good := drainFixture(t)
	if err := checkDrain(chk, good); err != nil {
		t.Fatalf("faithful results rejected: %v", err)
	}
	mid := len(good) / 2
	dropped := append(append([]amigo.Result(nil), good[:mid]...), good[mid+1:]...)
	if err := checkDrain(chk, dropped); err == nil {
		t.Error("a dropped result passed the drain check")
	}
	duplicated := append(append([]amigo.Result(nil), good...), good[mid])
	if err := checkDrain(chk, duplicated); err == nil {
		t.Error("a duplicated result passed the drain check")
	}
	flipped := append([]amigo.Result(nil), good...)
	flipped[mid].Payload = append([]byte(nil), flipped[mid].Payload...)
	flipped[mid].Payload[len(flipped[mid].Payload)/2] ^= 1
	if err := checkDrain(chk, flipped); err == nil {
		t.Error("a byte-flipped result passed the drain check")
	}
	if err := checkDrain(chk, good); err != nil {
		t.Errorf("the checker did not recover for the next pass: %v", err)
	}
}

// TestCampaignCheckCatches does the same for the campaign check: the
// exactly-once scan plus the dataset hash against the serial oracle.
func TestCampaignCheckCatches(t *testing.T) {
	cfg := newConfig("campaign_real", 42, 0, false, true)
	world, err := airalo.Build(cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := fleet.RunInProcess(world, campaignPlan(cfg), cfg.seed, "table4", true)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := fleet.Ingest(world.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := datasetHash(ds)
	if err != nil {
		t.Fatal(err)
	}
	// check ingests a (tampered) copy of the campaign and checks it.
	check := func(results []amigo.Result) error {
		c := *camp
		c.Results = results
		ds, err := fleet.Ingest(world.Reg, &c)
		if err != nil {
			return err
		}
		return checkCampaign(&c, ds, oracle)
	}
	good := camp.Results
	if err := check(good); err != nil {
		t.Fatalf("faithful campaign rejected: %v", err)
	}
	// A speedtest: Ingest carries its payload into the dataset verbatim.
	mid := 0
	for good[mid].Kind != "speedtest" || !good[mid].OK {
		mid++
	}
	dropped := append(append([]amigo.Result(nil), good[:mid]...), good[mid+1:]...)
	if err := check(dropped); err == nil {
		t.Error("a dropped result passed the campaign check")
	}
	duplicated := append(append([]amigo.Result(nil), good...), good[mid])
	if err := check(duplicated); err == nil {
		t.Error("a duplicated result passed the campaign check")
	}
	// Flip a digit inside the payload, so the JSON still parses and only
	// the dataset hash can tell.
	flipped := append([]amigo.Result(nil), good...)
	payload := append([]byte(nil), flipped[mid].Payload...)
	digit := bytes.IndexAny(payload, "0123456789")
	if digit < 0 {
		t.Fatalf("no digit to flip in %s", payload)
	}
	payload[digit] ^= 1
	flipped[mid].Payload = payload
	if err := check(flipped); err == nil {
		t.Error("a byte-flipped result passed the campaign check")
	}
}

// TestFlagsAsTheDriverPassesThem: the driver passes --workload, --seed,
// --seconds and --trace with values; a bad workload must fail without a
// result line.
func TestFlagsAsTheDriverPassesThem(t *testing.T) {
	var out bytes.Buffer
	if code := realMain([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, io.Discard); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("an unknown workload printed a result: %s", out.String())
	}
}
