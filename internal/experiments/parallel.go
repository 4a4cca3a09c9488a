package experiments

import (
	"runtime"

	"roamsim/internal/fleet"
	"roamsim/internal/rng"
)

// unit is one independently executable slice of a measurement campaign —
// in the paper's terms one (country, SIM kind, target/provider, rep)
// tuple. Units carry a descriptive label used to fork their private
// random stream, so a unit's observations depend only on the campaign
// seed and its position in the canonical enumeration order, never on
// which worker ran it or when.
type unit[T any] struct {
	label string
	run   func(src *rng.Source) ([]T, error)
}

// workers resolves the configured pool size: Workers if positive,
// otherwise GOMAXPROCS at call time.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runUnits executes campaign units on fleet's bounded worker pool and
// returns the concatenated results in canonical unit order.
//
// Determinism contract: every unit's rng.Source is pre-forked serially,
// in enumeration order, BEFORE any goroutine starts (Fork consumes a
// parent draw, so fork order is part of the stream identity — see the
// internal/rng package doc). Workers then claim unit indices
// (fleet.RunPool) and write into a per-unit slot, and the final merge
// walks slots in order. The result is byte-identical for any worker
// count and any GOMAXPROCS, including workers == 1.
//
// If any unit fails, the error of the earliest failing unit (in
// canonical order) is returned and results are discarded.
func runUnits[T any](parent *rng.Source, workers int, units []unit[T]) ([]T, error) {
	srcs := make([]*rng.Source, len(units))
	for i := range units {
		srcs[i] = parent.Fork(units[i].label)
	}
	results := make([][]T, len(units))
	errs := make([]error, len(units))
	fleet.RunPool(workers, len(units), func(i int) {
		results[i], errs[i] = units[i].run(srcs[i])
	})
	out := make([]T, 0, len(units))
	for i := range units {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	return out, nil
}
