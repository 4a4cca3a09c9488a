package fleet

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/shard"
	"roamsim/internal/vclock"
	"roamsim/internal/wire"
)

// TestFleetVitalsMatchOracle: the vitals a heartbeat samples reach the
// server on the ME's next lease, so after a campaign every ME's
// Server.Vitals are the serial oracle's, bit for bit — over a clean real
// run, a virtual-clock run under chaos.Light (retried and replayed
// leases re-send them), and a 4-shard run (each ME's owning shard).
func TestFleetVitalsMatchOracle(t *testing.T) {
	w, plan, o := testWorld(t), chaosTestPlan(), oracle(t)
	// The lease frame carries each float as its IEEE-754 bits: equal
	// frames are bit-identical vitals.
	bits := func(v amigo.Vitals) []byte { return wire.AppendLeaseRequest(nil, wire.LeaseRequest{Vitals: v}) }
	check := func(t *testing.T, serverOf func(me string) *amigo.Server) {
		for _, sc := range plan.Schedules() {
			want, _ := o.srv.Vitals(sc.Name)
			got, ok := serverOf(sc.Name).Vitals(sc.Name)
			if want.IsZero() || !ok || !bytes.Equal(bits(got), bits(want)) {
				t.Errorf("%s: vitals %+v, want the oracle's %+v", sc.Name, got, want)
			}
		}
	}
	t.Run("real", func(t *testing.T) {
		srv, hs := newControlServer(t)
		d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 4, LeaseBatch: 4, StreamLabel: "chaos-eq", Heartbeat: true}
		if _, err := d.Run(w, plan); err != nil {
			t.Fatal(err)
		}
		check(t, func(string) *amigo.Server { return srv })
	})
	t.Run("virtual-chaos-light", func(t *testing.T) {
		inj := chaos.NewInjector(7, chaos.Light())
		srv := amigo.NewServer(nil)
		hs := httptest.NewServer(inj.Middleware(shard.Mount(srv.Handler(), srv.AdminHandler())))
		defer hs.Close()
		d := &Driver{BaseURL: hs.URL, Seed: testSeed, Workers: 4, LeaseBatch: 4, StreamLabel: "chaos-eq", Heartbeat: true,
			Chaos: inj, Clock: vclock.NewVirtual(), Realize: true}
		if _, err := d.Run(w, plan); err != nil {
			t.Fatal(err)
		}
		if len(inj.Events()) == 0 {
			t.Fatal("chaos.Light injected no faults")
		}
		check(t, func(string) *amigo.Server { return srv })
	})
	t.Run("sharded", func(t *testing.T) {
		f := runProof(t, proofRow{Scenario: Scenario{Workers: 4, Plane: ShardedConfig{Shards: 4}}}).Fleet
		check(t, func(me string) *amigo.Server { return f.Server(f.Ring().Shard(me)) })
	})
}
