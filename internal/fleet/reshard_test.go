package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/obs"
	"roamsim/internal/shard"
)

// runReshardCampaign is runShardedCampaign with the restart budget the
// reshard scenarios need: every reshard drops every ME's server-side
// registration at once, so each ME burns one recovery per reshard on
// top of whatever chaos injects.
func runReshardCampaign(t *testing.T, cfg ShardedConfig, inj *chaos.Injector, reg *obs.Registry, workers int) (dsBlob []byte, table4, rtt string, f *ShardedFleet) {
	t.Helper()
	w := testWorld(t)
	plan := chaosTestPlan()
	f, err := NewShardedFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	var handler = f.Handler()
	if inj != nil {
		handler = inj.Middleware(handler)
	}
	hs := httptest.NewServer(handler)
	t.Cleanup(hs.Close)
	d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: workers,
		LeaseBatch: 4, StreamLabel: "chaos-eq", Heartbeat: true,
		Chaos: inj, Obs: reg, RestartBudget: 8}
	camp, err := d.Run(w, plan)
	if err != nil {
		t.Fatal(err)
	}
	// The campaign's last upload may have fired a reshard that is still
	// swapping; settle before anyone inspects topology or WAL state.
	f.WaitIdle()
	dsBlob, table4, rtt = artifacts(t, camp)
	return dsBlob, table4, rtt, f
}

// ingestReplay rebuilds the dataset blob from a raw WAL replay, the
// cold post-crash recovery path.
func ingestReplay(t *testing.T, replayed []amigo.Result) []byte {
	t.Helper()
	w := testWorld(t)
	plan := chaosTestPlan()
	camp := &Campaign{Plan: plan, Schedules: plan.Schedules(), Results: replayed}
	ds, err := Ingest(w.Reg, camp)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestReshardEquivalence is the resharding differential test: a
// campaign that live-reshards 1→4→2 mid-run — with and without WAL
// compaction riding along — must ingest the byte-identical dataset,
// Table 4, and RTT summary as the serial single-server run, and a cold
// replay of the final epoch's WAL set alone must rebuild that same
// dataset. Sharding topology changes, like shard kills and the wire
// codec, are deployment details that must never change data.
func TestReshardEquivalence(t *testing.T) {
	wantDS, wantT4, wantRTT := serialOracle(t)

	for _, compactAfter := range []int{0, 2} {
		t.Run(fmt.Sprintf("compactAfter=%d", compactAfter), func(t *testing.T) {
			reg := obs.NewRegistry()
			walDir := t.TempDir()
			cfg := ShardedConfig{
				Shards: 1, WALDir: walDir,
				SegmentBytes: 2048, // rotate briskly so compaction has prey
				CompactAfter: compactAfter,
				Obs:          reg,
				Reshards: []ReshardStep{
					{AfterUploads: 4, Shards: 4},
					{AfterUploads: 9, Shards: 2},
				},
			}
			gotDS, gotT4, gotRTT, f := runReshardCampaign(t, cfg, nil, reg, 4)

			if err := f.ReshardErr(); err != nil {
				t.Fatalf("reshard failed: %v", err)
			}
			if err := f.CompactErr(); err != nil {
				t.Fatalf("compaction failed: %v", err)
			}
			reshards, st := f.Reshards()
			if reshards != 2 {
				t.Fatalf("%d reshards completed, want 2", reshards)
			}
			if st.Records == 0 {
				t.Fatal("final reshard copied no records")
			}
			if got := f.Shards(); got != 2 {
				t.Fatalf("Shards() = %d after 1→4→2, want 2", got)
			}
			if got := f.Epoch(); got != 2 {
				t.Fatalf("Epoch() = %d after two reshards, want 2", got)
			}
			if got := reg.Counter("fleet_reshards_total").Value(); got != 2 {
				t.Fatalf("fleet_reshards_total = %d, want 2", got)
			}
			if compactAfter > 0 {
				var buf bytes.Buffer
				reg.WritePrometheus(&buf)
				if !bytes.Contains(buf.Bytes(), []byte("walsink_compactions_total")) {
					t.Error("CompactAfter set but no compaction ran — shrink SegmentBytes")
				}
			}

			if !bytes.Equal(gotDS, wantDS) {
				t.Error("resharded dataset differs from single-server baseline")
			}
			if gotT4 != wantT4 {
				t.Errorf("Table 4 differs:\nresharded:\n%s\nbaseline:\n%s", gotT4, wantT4)
			}
			if gotRTT != wantRTT {
				t.Errorf("RTT summary differs:\nresharded:\n%s\nbaseline:\n%s", gotRTT, wantRTT)
			}

			// Cold recovery across epochs: the manifest must point at the
			// final 2-shard set, and replaying it alone rebuilds the
			// byte-identical dataset.
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			epoch, shards, err := LatestWALSet(walDir)
			if err != nil {
				t.Fatal(err)
			}
			if epoch != 2 || shards != 2 {
				t.Fatalf("manifest says epoch=%d shards=%d, want 2/2", epoch, shards)
			}
			replayed, err := ReplayLatestWALs(walDir)
			if err != nil {
				t.Fatal(err)
			}
			if blob := ingestReplay(t, replayed); !bytes.Equal(blob, wantDS) {
				t.Error("dataset rebuilt from final-epoch WAL replay differs from baseline")
			}
		})
	}
}

// TestCompactionCrashRecovery kills a shard at the nastiest compaction
// crash point — the compacted segment is committed in place, the source
// segments it covers are still on disk — mid-campaign, and requires the
// campaign to ingest the byte-identical dataset and a cold replay of
// the surviving WALs (which must arbitrate artifact vs sources on
// reopen) to rebuild it.
func TestCompactionCrashRecovery(t *testing.T) {
	wantDS, wantT4, _ := serialOracle(t)

	reg := obs.NewRegistry()
	walDir := t.TempDir()
	cfg := ShardedConfig{
		Shards: 2, WALDir: walDir,
		SegmentBytes:     1024, // many small segments: compaction fires early
		CompactAfter:     2,
		Obs:              reg,
		ForceCompactKill: true,
		// Crash the shard that owns an ME in this small plan; placement
		// is a pure function of the name.
		ForceCompactKillShard: shard.NewRing(2).Shard("me-PAK-0"),
	}
	// One ME at a time: the compaction that dies runs inside an upload,
	// so with concurrent MEs the kill could land after every ME had sent
	// its last lease, and no request would meet the fresh server. Run
	// serially, the kill fires at the same upload every run (the first
	// ME's last, 12 of the 48 results), and the three MEs that have not
	// started yet lease from the fresh server.
	gotDS, gotT4, _, f := runReshardCampaign(t, cfg, nil, reg, 1)

	if f.CompactKills() == 0 {
		t.Fatal("no compact-kill fired; the test proved nothing")
	}
	if f.Kills() == 0 {
		t.Fatal("compact-kill did not kill the shard")
	}
	if err := f.CompactErr(); err != nil {
		t.Fatalf("compaction failed outside the injected crash: %v", err)
	}
	if got := reg.Counter("fleet_shard_recoveries_total").Value(); got == 0 {
		t.Error("no ME ran shard recovery despite a compact-kill")
	}
	if !bytes.Equal(gotDS, wantDS) {
		t.Error("dataset after compact-kill differs from clean single-server baseline")
	}
	if gotT4 != wantT4 {
		t.Errorf("Table 4 after compact-kill differs:\ngot:\n%s\nwant:\n%s", gotT4, wantT4)
	}

	// Cold recovery: reopen from disk — resolving whatever compaction
	// debris the crash left — and rebuild the dataset from replay alone.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayLatestWALs(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if blob := ingestReplay(t, replayed); !bytes.Equal(blob, wantDS) {
		t.Error("dataset rebuilt from WAL replay after compact-kill differs from baseline")
	}
}

// TestCompactionChaosSchedule runs compaction kills off the seeded
// chaos schedule — on top of heavy client/server chaos — instead of the
// deterministic one-shot, and requires the same data invariants.
func TestCompactionChaosSchedule(t *testing.T) {
	wantDS, _, _ := serialOracle(t)

	ccfg := chaos.Heavy()
	ccfg.CompactKill = 0.9
	ccfg.MaxCompactKills = 2
	inj := chaos.NewInjector(7, ccfg)
	reg := obs.NewRegistry()
	walDir := t.TempDir()
	cfg := ShardedConfig{
		Shards: 2, WALDir: walDir,
		SegmentBytes: 1024,
		CompactAfter: 2,
		Chaos:        inj,
		Obs:          reg,
	}
	gotDS, _, _, f := runReshardCampaign(t, cfg, inj, reg, 4)

	if f.CompactKills() == 0 {
		t.Skip("seeded schedule injected no compact-kill at this seed; covered by the force-kill test")
	}
	if got := inj.Counts()["compact-kill"]; got != f.CompactKills() {
		t.Errorf("injector recorded %d compact-kills, fleet performed %d", got, f.CompactKills())
	}
	if !bytes.Equal(gotDS, wantDS) {
		t.Error("dataset under chaos compact-kills differs from clean baseline")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReplayLatestWALs(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if blob := ingestReplay(t, replayed); !bytes.Equal(blob, wantDS) {
		t.Error("dataset rebuilt from WAL replay under chaos compact-kills differs from baseline")
	}
}
