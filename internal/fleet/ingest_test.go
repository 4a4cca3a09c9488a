package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"roamsim/internal/amigo"
)

// mkDNSResult fabricates an uploaded DNS result with a payload that
// encodes its identity, so tests can see WHICH copy of a duplicate
// survived ingestion.
func mkDNSResult(me string, taskID int, resolver string) amigo.Result {
	p, _ := json.Marshal(amigo.DNSPayload{Resolver: resolver, City: "X", Country: "Y", DurationMs: 1})
	return amigo.Result{TaskID: taskID, ME: me, Kind: "dns", Config: "esim", OK: true,
		Payload: p, Uploaded: time.Unix(int64(taskID), 0)}
}

func ingestCampaign(t *testing.T, scheds []MESchedule, results []amigo.Result) (*Dataset, error) {
	t.Helper()
	w := testWorld(t)
	return Ingest(w.Reg, &Campaign{Schedules: scheds, Results: results})
}

// TestIngestEdgeCases table-drives the folder over the control-plane
// edge cases a faulty fleet produces: duplicate (ME, task) uploads,
// out-of-order result pages, empty campaigns, and strays.
func TestIngestEdgeCases(t *testing.T) {
	scheds := []MESchedule{
		{Name: "me-A", ISO: "PAK"},
		{Name: "me-B", ISO: "DEU"},
	}
	cases := []struct {
		name    string
		results []amigo.Result
		wantDNS []string // resolver markers, in canonical order
		wantErr string
	}{
		{
			name:    "empty campaign",
			results: nil,
			wantDNS: nil,
		},
		{
			name: "duplicate uploads keep first arrival",
			results: []amigo.Result{
				mkDNSResult("me-A", 1, "first"),
				mkDNSResult("me-A", 1, "replayed"), // crash replay of the same task
				mkDNSResult("me-A", 2, "two"),
			},
			wantDNS: []string{"first", "two"},
		},
		{
			name: "out of order pages canonicalize",
			results: []amigo.Result{
				mkDNSResult("me-B", 4, "b4"),
				mkDNSResult("me-A", 2, "a2"),
				mkDNSResult("me-B", 3, "b3"),
				mkDNSResult("me-A", 1, "a1"),
			},
			wantDNS: []string{"a1", "a2", "b3", "b4"},
		},
		{
			name: "interleaved duplicates across MEs",
			results: []amigo.Result{
				mkDNSResult("me-B", 7, "b7"),
				mkDNSResult("me-A", 7, "a7"),
				mkDNSResult("me-B", 7, "b7-dup"),
				mkDNSResult("me-A", 8, "a8"),
				mkDNSResult("me-A", 7, "a7-dup"),
			},
			wantDNS: []string{"a7", "a8", "b7"},
		},
		{
			name:    "stray ME rejected",
			results: []amigo.Result{mkDNSResult("me-ghost", 1, "x")},
			wantErr: "outside the campaign",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ds, err := ingestCampaign(t, scheds, c.results)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range ds.DNS {
				got = append(got, r.Payload.Resolver)
			}
			if len(got) != len(c.wantDNS) {
				t.Fatalf("DNS records = %v, want %v", got, c.wantDNS)
			}
			for i := range got {
				if got[i] != c.wantDNS[i] {
					t.Fatalf("DNS records = %v, want %v", got, c.wantDNS)
				}
			}
		})
	}
}

// TestIngestEmptyCampaignRenders: the renderers must cope with a
// campaign that uploaded nothing (every ME crashed out, or the plan was
// empty) without panicking.
func TestIngestEmptyCampaignRenders(t *testing.T) {
	ds, err := ingestCampaign(t, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Countries: []string{"PAK"}}
	if got := Table4(ds, plan).String(); got == "" {
		t.Error("Table4 of empty dataset rendered nothing")
	}
	if got := RTTSummary(ds, plan).String(); got == "" {
		t.Error("RTTSummary of empty dataset rendered nothing")
	}
}

// TestIngestShuffleInvariance: ingesting any permutation of the same
// results yields the byte-identical dataset — the property the fleet's
// paged, interleaved uploads rely on.
func TestIngestShuffleInvariance(t *testing.T) {
	scheds := []MESchedule{{Name: "me-A", ISO: "PAK"}, {Name: "me-B", ISO: "DEU"}}
	results := []amigo.Result{
		mkDNSResult("me-A", 1, "a1"), mkDNSResult("me-A", 2, "a2"),
		mkDNSResult("me-B", 1, "b1"), mkDNSResult("me-B", 2, "b2"),
		{TaskID: 3, ME: "me-A", Kind: "dns", Config: "esim", OK: false, Error: "radio lost"},
	}
	var baseline []byte
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 4, 0, 3, 1}}
	for _, perm := range perms {
		shuffled := make([]amigo.Result, len(results))
		for i, j := range perm {
			shuffled[i] = results[j]
		}
		ds, err := ingestCampaign(t, scheds, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Failures) != 1 || ds.Failures[0].Error != "radio lost" {
			t.Fatalf("failures = %+v", ds.Failures)
		}
		blob, _ := json.Marshal(ds)
		if baseline == nil {
			baseline = blob
		} else if !bytes.Equal(blob, baseline) {
			t.Fatalf("dataset differs for permutation %v", perm)
		}
	}
}

// TestIngestIndependentOfGOMAXPROCS: Ingest folds on every core, and
// neither the dataset nor the error it reports may show how many there
// were. A real campaign's results (every payload kind, failures
// included) ingest to the byte-identical JSON at 1, 2 and 8; with two
// payloads corrupted — in MEs far enough apart to land in different
// chunks — and a stray ME's result sorted in after them, every setting
// reports the error a serial fold meets first.
func TestIngestIndependentOfGOMAXPROCS(t *testing.T) {
	w := testWorld(t)
	plan := Plan{Countries: []string{"PAK", "DEU", "GEO", "QAT"}, MEsPerCountry: 3}
	camp, err := RunInProcess(w, plan, testSeed, "gomaxprocs", true)
	if err != nil {
		t.Fatal(err)
	}
	ingestAt := func(procs int, c *Campaign) ([]byte, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		ds, err := Ingest(w.Reg, c)
		if err != nil {
			return nil, err
		}
		return json.Marshal(ds)
	}

	var want []byte
	for _, procs := range []int{1, 2, 8} {
		got, err := ingestAt(procs, camp)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if want == nil {
			want = got
			var ds Dataset
			if err := json.Unmarshal(got, &ds); err != nil {
				t.Fatal(err)
			}
			if len(ds.Speed) == 0 || len(ds.Traces) == 0 || len(ds.CDN) == 0 || len(ds.Video) == 0 {
				t.Fatalf("campaign ingested no records of some kind: %d speed, %d traces, %d cdn, %d video",
					len(ds.Speed), len(ds.Traces), len(ds.CDN), len(ds.Video))
			}
		} else if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d: dataset differs from the GOMAXPROCS=1 dataset", procs)
		}
	}

	// me-DEU-1 sorts first of the three bad results; me-QAT-2 is in the
	// last chunk at any setting above 1; me-ZZZ sorts last of all.
	bad := *camp
	bad.Results = append([]amigo.Result(nil), camp.Results...)
	corrupted := 0
	for i, r := range bad.Results {
		if r.OK && (r.ME == "me-DEU-1" && r.Kind == "cdn" || r.ME == "me-QAT-2" && r.Kind == "speedtest") {
			bad.Results[i].Payload = []byte(`{"truncated`)
			corrupted++
		}
	}
	if corrupted < 2 {
		t.Fatalf("corrupted %d payloads, want one or more in each of two MEs", corrupted)
	}
	bad.Results = append(bad.Results, mkDNSResult("me-ZZZ", 1, "stray"))
	var wantErr string
	for _, procs := range []int{1, 2, 8} {
		_, err := ingestAt(procs, &bad)
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: corrupted campaign ingested cleanly", procs)
		}
		if wantErr == "" {
			wantErr = err.Error()
			if !strings.Contains(wantErr, "bad cdn payload from me-DEU-1") {
				t.Fatalf("GOMAXPROCS=1 reports %q, want the first bad result in (ME, task) order: me-DEU-1's cdn", wantErr)
			}
		} else if err.Error() != wantErr {
			t.Fatalf("GOMAXPROCS=%d reports %q, GOMAXPROCS=1 reported %q", procs, err, wantErr)
		}
	}
}

// TestCutAtMEs: chunks are contiguous, cover the input, number at most
// n, and never split one ME's results.
func TestCutAtMEs(t *testing.T) {
	var rs []amigo.Result
	for me, tasks := range []int{5, 1, 9, 2, 2, 7, 1} {
		for id := 1; id <= tasks; id++ {
			rs = append(rs, amigo.Result{ME: fmt.Sprintf("me-%d", me), TaskID: id})
		}
	}
	for n := 1; n <= 12; n++ {
		chunks := cutAtMEs(rs, n)
		if len(chunks) > n || len(chunks) == 0 {
			t.Fatalf("n=%d: %d chunks", n, len(chunks))
		}
		at := 0
		for i, c := range chunks {
			if len(c) == 0 {
				t.Fatalf("n=%d: chunk %d is empty", n, i)
			}
			if &c[0] != &rs[at] {
				t.Fatalf("n=%d: chunk %d does not start where chunk %d ended", n, i, i-1)
			}
			if at > 0 && rs[at-1].ME == c[0].ME {
				t.Fatalf("n=%d: chunk %d splits %s", n, i, c[0].ME)
			}
			at += len(c)
		}
		if at != len(rs) {
			t.Fatalf("n=%d: chunks cover %d of %d results", n, at, len(rs))
		}
	}
	if chunks := cutAtMEs(nil, 4); len(chunks) != 0 {
		t.Fatalf("no results cut into %d chunks", len(chunks))
	}
}
