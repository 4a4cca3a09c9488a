package fleet

import (
	"bytes"
	"testing"

	"roamsim/internal/amigo"
	"roamsim/internal/chaos"
	"roamsim/internal/wire"
)

// TestFleetVitalsMatchOracle: the vitals a heartbeat samples reach the
// server on the ME's next lease, so after a campaign every ME's
// Server.Vitals are the serial oracle's, bit for bit — over a clean real
// run, a virtual-clock run under chaos.Light (retried and replayed
// leases re-send them), and a 4-shard run (each ME's owning shard). Each
// is a Scenario run through Scenario.Run.
func TestFleetVitalsMatchOracle(t *testing.T) {
	plan, o := chaosTestPlan(), oracle(t)
	// The lease frame carries each float as its IEEE-754 bits: equal
	// frames are bit-identical vitals.
	bits := func(v amigo.Vitals) []byte { return wire.AppendLeaseRequest(nil, wire.LeaseRequest{Vitals: v}) }
	for _, c := range []struct {
		name string
		sc   Scenario
	}{
		{"real", Scenario{Workers: 4}},
		{"virtual-chaos-light", Scenario{Workers: 4, Virtual: true, Realize: true, ChaosSeed: 7, Chaos: chaos.Light()}},
		{"sharded", Scenario{Workers: 4, Plane: ShardedConfig{Shards: 4}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := runProof(t, proofRow{Scenario: c.sc})
			for _, sc := range plan.Schedules() {
				srv := r.srv
				if f := r.Fleet; f != nil {
					srv = f.Server(f.Ring().Shard(sc.Name))
				}
				want, _ := o.srv.Vitals(sc.Name)
				got, ok := srv.Vitals(sc.Name)
				if want.IsZero() || !ok || !bytes.Equal(bits(got), bits(want)) {
					t.Errorf("%s: vitals %+v, want the oracle's %+v", sc.Name, got, want)
				}
			}
		})
	}
}
