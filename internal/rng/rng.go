// Package rng provides deterministic random number generation for the
// simulator. Every stochastic element in the reproduction (jitter, load,
// cache misses, plan prices, ...) draws from an rng.Source seeded from the
// experiment seed, so a given seed regenerates every table and figure
// bit-for-bit.
//
// Sources can be forked by label: Fork("pakistan/esim/traceroute") yields
// an independent stream whose values do not shift when unrelated parts of
// the simulation add or remove draws. This "named stream" discipline is
// what keeps figures stable as the codebase evolves.
//
// # Concurrency: pre-fork, then spawn
//
// A Source is NOT safe for concurrent use, and Fork itself consumes one
// draw from the parent, so the fork ORDER is part of the deterministic
// contract. Parallel code must therefore fork every worker's stream
// serially, in a canonical order, BEFORE spawning any goroutine, then
// hand exactly one child to each goroutine:
//
//	srcs := parent.ForkN("campaign", len(units)) // serial, canonical order
//	for i := range units {
//	    go func(i int) { units[i].Run(srcs[i]) }(i)
//	}
//
// Because each unit's stream is fixed before any goroutine starts, the
// results are independent of scheduling and of GOMAXPROCS. This is the
// scheme the parallel campaign engine in internal/experiments uses (with
// descriptive per-unit labels instead of ForkN indices).
//
// # What a seed costs
//
// A Source is math/rand's seeded generator bit for bit, paying for state
// on demand. math/rand's Seed walks 1 841 steps of x ← 48271·x mod 2³¹−1 to
// fill a 607-word register (≈ 9.4 µs, 4.9 KB), three chain values XOR a
// fixed table per word; a draw is vec[feed] += vec[tap], indices walking
// down 273 apart. A multiplicative LCG's k-th value is 48271ᵏ·seed — a word
// is three multiplies against a power table — and draws 0…272 add two words
// no draw has yet written. So seeding keeps the reduced seed (≈ 2 ns), the
// first 273 draws are closed-form (≈ 16 ns each), the 274th fills the
// register (≈ 5.4 µs, once), and then a draw costs math/rand's ≈ 3 ns.
package rng

import (
	"math"
	"math/rand"
	"strconv"
)

// Source is a deterministic random stream with distribution helpers.
// It is NOT safe for concurrent use; fork one Source per goroutine.
//
// It costs what it draws (package doc, "What a seed costs"): 40 bytes until
// the first draw adds the rand.Rand, 4.9 KB more only from draw closedDraws+1.
type Source struct {
	gen lfg
	r   *rand.Rand // over &gen; nil until the first draw
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.gen.Seed(seed)
	return s
}

// rand returns the generator, building it on first use; init is split out
// so that rand inlines into every draw.
func (s *Source) rand() *rand.Rand {
	if s.r == nil {
		s.init()
	}
	return s.r
}

func (s *Source) init() { s.r = rand.New(&s.gen) }

// Fork derives an independent, deterministic child stream identified by
// label. Forking consumes one draw from the parent, so the order of Fork
// calls matters: fork serially in a canonical order before handing
// children to goroutines (see the package doc).
func (s *Source) Fork(label string) *Source {
	return New(s.ForkSeed(label))
}

// ForkSeed consumes one parent draw and returns the seed Fork(label)
// would have built its child from: New(ForkSeed(label)) is exactly
// Fork(label). Callers that may need to recreate a child stream later —
// e.g. to replay a crashed measurement endpoint from the top — store the
// seed instead of the (non-copyable) Source.
func (s *Source) ForkSeed(label string) int64 {
	return labelHash(label) ^ s.rand().Int63()
}

// Stream derives a deterministic Source from (seed, label) without any
// parent state: the same pair always yields the same stream, and calls
// are independent of each other, so Stream is safe to invoke from any
// goroutine at any time. This is the out-of-band escape hatch for
// randomness that must not perturb the forked measurement streams —
// fault-injection schedules and retry jitter draw from Stream so that a
// chaos run and a clean run consume identical draws from every Fork'd
// stream.
func Stream(seed int64, label string) *Source {
	return New(labelHash(label) ^ seed)
}

// Reseed rewinds s to the first draw of Stream(seed, label): afterwards
// the source is exactly the one Stream would have returned, whatever it
// drew before. It is Stream without the allocations (Source, rand.Rand,
// a register if s ever filled one) for code that draws a few values per
// decision from many labelled streams and can keep, or pool, one Source.
func (s *Source) Reseed(seed int64, label string) { s.gen.Seed(labelHash(label) ^ seed) }

// labelHash is FNV-1a (64-bit) of label, computed in place so hashing a
// label allocates nothing.
func labelHash(label string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * prime64
	}
	return int64(h)
}

// ForkN pre-forks n children labeled "label/0" … "label/n-1" in one
// deterministic pass. It is the worker-pool helper: call it before
// spawning goroutines and give child i to worker i, so parallel results
// are independent of scheduling and GOMAXPROCS.
func (s *Source) ForkN(label string, n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Fork(label + "/" + strconv.Itoa(i))
	}
	return out
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.rand().Float64() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rand().Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rand().Intn(n) }

// IntBetween returns a uniform int in [lo, hi] inclusive.
func (s *Source) IntBetween(lo, hi int) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + s.rand().Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rand().Float64() < p }

// Normal returns a draw from N(mean, stddev²).
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rand().NormFloat64()
}

// PositiveNormal returns a draw from N(mean, stddev²) truncated at a small
// positive floor; it is the workhorse for latencies and throughputs that
// must never be negative.
func (s *Source) PositiveNormal(mean, stddev float64) float64 {
	v := s.Normal(mean, stddev)
	floor := mean / 10
	if floor <= 0 {
		floor = 1e-6
	}
	if v < floor {
		return floor
	}
	return v
}

// LogNormal returns a draw whose logarithm is N(mu, sigma²).
// Heavy-tailed quantities (web object sizes, session volumes, RTT spikes)
// use this.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMeanMedian parameterizes a lognormal by its median m and a
// shape sigma, which is how the traffic models in the paper reproduction
// are calibrated (medians are what the figures report).
func (s *Source) LogNormalMeanMedian(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return s.LogNormal(math.Log(median), sigma)
}

// Exponential returns a draw from Exp(rate). Mean is 1/rate.
func (s *Source) Exponential(rate float64) float64 {
	return s.rand().ExpFloat64() / rate
}

// Pareto returns a draw from a Pareto distribution with scale xm and
// shape alpha. Used for heavy-tailed per-user traffic volumes.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.rand().Float64()
	for u == 0 {
		u = s.rand().Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// WeightedIndex returns an index into weights with probability
// proportional to weights[i]. It panics on an empty or all-zero slice.
func (s *Source) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("rng: all weights zero")
	}
	target := s.rand().Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Pick returns a uniformly chosen element of items.
func Pick[T any](s *Source, items []T) T {
	return items[s.Intn(len(items))]
}

// Shuffle permutes items in place.
func Shuffle[T any](s *Source, items []T) {
	s.rand().Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rand().Perm(n) }

// Jitter returns v multiplied by a factor uniform in [1-frac, 1+frac].
// It is the standard way the simulator perturbs deterministic baselines.
func (s *Source) Jitter(v, frac float64) float64 {
	return v * s.Uniform(1-frac, 1+frac)
}
