package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
)

// TestFleetProtoEquivalence is the protocol differential test: the same
// seeded campaign must ingest the byte-identical dataset, Table 4, and
// RTT summary whether it runs serially over the v1 JSON poll protocol
// (the oracle) or through the fleet driver over v3 binary batch frames,
// serially or in parallel, on a clean network or under chaos.Heavy.
// The wire format is an encoding detail; it must never change data.
func TestFleetProtoEquivalence(t *testing.T) {
	wantDS, wantT4, wantRTT := serialOracle(t)
	if len(wantDS) == 0 || wantT4 == "" || wantRTT == "" {
		t.Fatal("empty baseline artifacts")
	}
	cases := []struct {
		chaos   bool
		workers int
	}{
		{false, 1},
		{false, 4},
		{true, 1},
		{true, 4},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("v3/chaos=%v/workers=%d", tc.chaos, tc.workers)
		t.Run(name, func(t *testing.T) {
			var inj *chaos.Injector
			if tc.chaos {
				inj = chaos.NewInjector(7, chaos.Heavy())
			}
			gotDS, gotT4, gotRTT := runChaosCampaign(t, inj, tc.workers)
			if !bytes.Equal(gotDS, wantDS) {
				msg := "dataset differs from the v1 serial oracle"
				if inj != nil {
					msg += "\nfault trace:\n" + inj.TraceString()
				}
				t.Error(msg)
			}
			if gotT4 != wantT4 {
				t.Errorf("Table 4 differs:\ngot:\n%s\nwant:\n%s", gotT4, wantT4)
			}
			if gotRTT != wantRTT {
				t.Errorf("RTT summary differs:\ngot:\n%s\nwant:\n%s", gotRTT, wantRTT)
			}
			if inj != nil && len(inj.Events()) == 0 {
				t.Error("chaos run injected zero faults; the test proved nothing")
			}
		})
	}
}

// TestDriverRejectsUnknownProto pins that a stale protocol selector
// fails loudly instead of silently running the one batch protocol.
func TestDriverRejectsUnknownProto(t *testing.T) {
	w := testWorld(t)
	_, hs := newControlServer(t)
	for _, proto := range []string{"v2", "v9"} {
		d := &Driver{BaseURL: hs.URL, Seed: testSeed, Proto: proto}
		if _, err := d.Run(w, chaosTestPlan()); err == nil {
			t.Errorf("Run accepted protocol %q", proto)
		}
	}
}

// TestFetchResultsAllocs: the driver's fetch-back materialises each
// result once. Over a 12 000-result log (three pages) it returns the
// log's results in order in one exactly-sized slice, and the whole
// round — server side included — costs at most one allocation per
// result fetched (the JSON fetch-back it replaced cost over ten). It
// also pins that there is one path: a server that does not answer in v3
// frames is an error, not a fallback.
func TestFetchResultsAllocs(t *testing.T) {
	const n = 12000
	srv, hs := newControlServer(t)
	want := make([]amigo.Result, n)
	for i := range want {
		want[i] = mkDNSResult(fmt.Sprintf("me-%d", i%50), i+1, fmt.Sprintf("r%d", i))
	}
	for i := 0; i < n; i += 1000 {
		if err := srv.Submit(want[i : i+1000]); err != nil {
			t.Fatal(err)
		}
	}
	d := &Driver{BaseURL: hs.URL}
	client := hs.Client()

	got, err := d.fetchResults(client, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n || cap(got) != n {
		t.Fatalf("fetched %d results into a slice of capacity %d, want %d exactly", len(got), cap(got), n)
	}
	for i := range got {
		if got[i].ME != want[i].ME || got[i].TaskID != want[i].TaskID || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("result %d: got %s/%d %s, want %s/%d %s", i,
				got[i].ME, got[i].TaskID, got[i].Payload, want[i].ME, want[i].TaskID, want[i].Payload)
		}
	}
	if tail, err := d.fetchResults(client, n-3); err != nil || len(tail) != 3 || tail[0].TaskID != n-2 {
		t.Fatalf("fetch from cursor %d: %d results, err %v", n-3, len(tail), err)
	}

	perResult := testing.AllocsPerRun(3, func() {
		if _, err := d.fetchResults(client, 0); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("%.3f allocations per result fetched", perResult)
	if perResult > 1 {
		t.Errorf("fetch-back costs %.2f allocations per result, want <= 1", perResult)
	}

	jsonOnly := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"cursor":0,"results":[]}`)
	}))
	defer jsonOnly.Close()
	if _, err := (&Driver{BaseURL: jsonOnly.URL}).fetchResults(jsonOnly.Client(), 0); err == nil {
		t.Error("fetch-back accepted a JSON page")
	}
}
