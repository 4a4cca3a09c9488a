package rng

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 produced %d identical draws of 100", same)
	}
}

func TestForkDeterministicAndIndependent(t *testing.T) {
	// Same parent seed + same label = same child stream.
	c1 := New(7).Fork("pakistan/esim")
	c2 := New(7).Fork("pakistan/esim")
	for i := 0; i < 100; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatalf("forked streams with same label diverged at %d", i)
		}
	}
	// Different labels give different streams.
	d1 := New(7).Fork("a")
	d2 := New(7).Fork("b")
	same := 0
	for i := 0; i < 100; i++ {
		if d1.Float64() == d2.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("differently-labeled forks produced %d identical draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(5, 9)
		if v < 5 || v >= 9 {
			t.Fatalf("Uniform(5,9) = %f out of range", v)
		}
	}
}

func TestIntBetweenInclusive(t *testing.T) {
	s := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntBetween(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("IntBetween(3,6) = %d", v)
		}
		seen[v] = true
	}
	for want := 3; want <= 6; want++ {
		if !seen[want] {
			t.Errorf("IntBetween never produced %d", want)
		}
	}
	if got := s.IntBetween(5, 5); got != 5 {
		t.Errorf("IntBetween(5,5) = %d", got)
	}
	if v := s.IntBetween(9, 7); v < 7 || v > 9 {
		t.Errorf("IntBetween with swapped bounds = %d", v)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(5)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("Normal mean = %f, want ~10", mean)
	}
	if math.Abs(variance-4) > 0.3 {
		t.Errorf("Normal variance = %f, want ~4", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(7)
	const n = 20001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormalMeanMedian(30, 0.5)
	}
	sort.Float64s(vals)
	med := vals[n/2]
	if med < 27 || med > 33 {
		t.Errorf("lognormal median = %f, want ~30", med)
	}
	for _, v := range vals {
		if v <= 0 {
			t.Fatal("lognormal produced non-positive value")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(8)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(0.5) // mean 2
	}
	if mean := sum / n; math.Abs(mean-2) > 0.1 {
		t.Errorf("Exponential(0.5) mean = %f, want ~2", mean)
	}
}

func TestWeightedIndex(t *testing.T) {
	s := New(10)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[s.WeightedIndex([]float64{1, 2, 7})]++
	}
	if f := float64(counts[2]) / 30000; f < 0.65 || f > 0.75 {
		t.Errorf("weight-7 option frequency = %f, want ~0.7", f)
	}
	if f := float64(counts[0]) / 30000; f < 0.07 || f > 0.13 {
		t.Errorf("weight-1 option frequency = %f, want ~0.1", f)
	}
}

func TestWeightedIndexPanics(t *testing.T) {
	s := New(11)
	for _, weights := range [][]float64{{}, {0, 0}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WeightedIndex(%v) should panic", weights)
				}
			}()
			s.WeightedIndex(weights)
		}()
	}
}

func TestPickAndShuffle(t *testing.T) {
	s := New(12)
	items := []string{"a", "b", "c", "d"}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[Pick(s, items)] = true
	}
	if len(seen) != 4 {
		t.Errorf("Pick visited %d of 4 items", len(seen))
	}
	orig := append([]string(nil), items...)
	Shuffle(s, items)
	if len(items) != 4 {
		t.Fatal("shuffle changed length")
	}
	elem := map[string]int{}
	for _, v := range items {
		elem[v]++
	}
	for _, v := range orig {
		if elem[v] != 1 {
			t.Fatalf("shuffle lost element %s", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	s := New(13)
	for i := 0; i < 1000; i++ {
		v := s.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter(100, 0.1) = %f", v)
		}
	}
}

func TestForkSeedMatchesFork(t *testing.T) {
	// New(ForkSeed(label)) must reproduce Fork(label) exactly — the
	// replay path (crashed MEs restarting from a stored seed) depends
	// on it — and both must consume exactly one parent draw.
	a, b := New(99), New(99)
	seed := a.ForkSeed("me-PAK")
	forked := b.Fork("me-PAK")
	replayed := New(seed)
	for i := 0; i < 100; i++ {
		if forked.Float64() != replayed.Float64() {
			t.Fatalf("replayed stream diverged at draw %d", i)
		}
	}
	// Parents stayed in lockstep (same number of draws consumed).
	if a.Float64() != b.Float64() {
		t.Error("ForkSeed and Fork consumed different parent draws")
	}
}

func TestStreamIsStatelessAndLabeled(t *testing.T) {
	// Same (seed, label) — same stream, regardless of what else was
	// derived in between.
	x := Stream(7, "chaos/me-PAK/0")
	_ = Stream(7, "something/else")
	y := Stream(7, "chaos/me-PAK/0")
	for i := 0; i < 50; i++ {
		if x.Float64() != y.Float64() {
			t.Fatalf("Stream not deterministic at draw %d", i)
		}
	}
	// Different labels and different seeds diverge.
	if Stream(7, "a").Float64() == Stream(7, "b").Float64() &&
		Stream(7, "a").Float64() == Stream(8, "a").Float64() {
		t.Error("Stream streams are not independent")
	}
}

// TestReseedEqualsStream: whatever a source drew before — every helper,
// Normal and Exponential (the ziggurat draws) included — after Reseed it
// replays Stream(seed, label) draw for draw, through every kind of draw.
func TestReseedEqualsStream(t *testing.T) {
	s := New(99)
	for round, label := range []string{"chaos/me-PAK-3/0/POST /v3/results/1", "", "chaos/mw/me-GEO/POST /v3/tasks/lease/12"} {
		seed := int64(42 + round)
		// Disturb the source differently each round.
		for i := 0; i < 17*(round+1); i++ {
			s.Float64()
			s.Normal(0, 1)
			s.Exponential(2)
			s.Intn(10)
			s.Perm(3)
		}
		s.Reseed(seed, label)
		want := Stream(seed, label)
		for i := 0; i < 200; i++ {
			if g, w := s.Float64(), want.Float64(); g != w {
				t.Fatalf("round %d draw %d: Float64 %v, Stream gives %v", round, i, g, w)
			}
			if g, w := s.Normal(3, 2), want.Normal(3, 2); g != w {
				t.Fatalf("round %d draw %d: Normal %v, Stream gives %v", round, i, g, w)
			}
			if g, w := s.Bool(0.3), want.Bool(0.3); g != w {
				t.Fatalf("round %d draw %d: Bool diverged", round, i)
			}
			if g, w := s.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("round %d draw %d: Intn %d, Stream gives %d", round, i, g, w)
			}
			if g, w := s.Exponential(0.5), want.Exponential(0.5); g != w {
				t.Fatalf("round %d draw %d: Exponential %v, Stream gives %v", round, i, g, w)
			}
			if g, w := s.ForkSeed("child"), want.ForkSeed("child"); g != w {
				t.Fatalf("round %d draw %d: ForkSeed diverged", round, i)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { s.Reseed(7, "chaos/crash/me-PAK-3/0/2") }); a != 0 {
		t.Errorf("Reseed allocates %.0f times, want 0", a)
	}
}

// TestLabelHashIsFNV1a pins the in-place label hash to hash/fnv, which
// every forked stream in the repository was seeded through before.
func TestLabelHashIsFNV1a(t *testing.T) {
	for _, label := range []string{"", "a", "table4", "PAK/3", "chaos/me-PAK-3/0/POST /v3/results/1", "ünïcode"} {
		h := fnv.New64a()
		h.Write([]byte(label))
		if got, want := labelHash(label), int64(h.Sum64()); got != want {
			t.Errorf("labelHash(%q) = %d, hash/fnv gives %d", label, got, want)
		}
	}
}

// ref is the oracle: the toolchain's own math/rand generator, which a
// Source must match draw for draw.
func ref(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// refForkSeed is what Fork's child is seeded from: one parent Int63 over
// the label's hash.
func refForkSeed(r *rand.Rand, label string) int64 { return labelHash(label) ^ r.Int63() }

// helpers is every way to draw from a Source, each returning what it drew,
// beside the same draw written against the oracle with rand.Rand's own
// methods.
var helpers = []struct {
	name string
	draw func(s *Source) any
	ref  func(r *rand.Rand) any
}{
	{"Float64", func(s *Source) any { return s.Float64() }, func(r *rand.Rand) any { return r.Float64() }},
	{"Uniform", func(s *Source) any { return s.Uniform(-3, 11) }, func(r *rand.Rand) any {
		lo, hi := -3.0, 11.0
		return lo + (hi-lo)*r.Float64()
	}},
	{"Intn", func(s *Source) any { return s.Intn(1000) }, func(r *rand.Rand) any { return r.Intn(1000) }},
	{"IntBetween", func(s *Source) any { return s.IntBetween(-5, 5) }, func(r *rand.Rand) any { return -5 + r.Intn(11) }},
	{"Bool", func(s *Source) any { return s.Bool(0.3) }, func(r *rand.Rand) any { return r.Float64() < 0.3 }},
	{"Normal", func(s *Source) any { return s.Normal(3, 2) }, func(r *rand.Rand) any { return 3 + 2*r.NormFloat64() }},
	{"LogNormal", func(s *Source) any { return s.LogNormal(0.5, 1.5) }, func(r *rand.Rand) any {
		return math.Exp(0.5 + 1.5*r.NormFloat64())
	}},
	{"LogNormalMeanMedian", func(s *Source) any { return s.LogNormalMeanMedian(40, 0.7) }, func(r *rand.Rand) any {
		return math.Exp(math.Log(40) + 0.7*r.NormFloat64())
	}},
	{"Exponential", func(s *Source) any { return s.Exponential(0.5) }, func(r *rand.Rand) any { return r.ExpFloat64() / 0.5 }},
	{"WeightedIndex", func(s *Source) any { return s.WeightedIndex([]float64{1, 0, 5, 2}) }, func(r *rand.Rand) any {
		target, acc := r.Float64()*8, 0.0
		for i, w := range []float64{1, 0, 5, 2} {
			if acc += w; target < acc {
				return i
			}
		}
		return 3
	}},
	{"Jitter", func(s *Source) any { return s.Jitter(100, 0.2) }, func(r *rand.Rand) any {
		v, frac := 100.0, 0.2
		lo, hi := 1-frac, 1+frac
		return v * (lo + (hi-lo)*r.Float64())
	}},
	{"Perm", func(s *Source) any { return s.Perm(7) }, func(r *rand.Rand) any { return r.Perm(7) }},
	{"Pick", func(s *Source) any { return Pick(s, []string{"a", "b", "c", "d", "e"}) }, func(r *rand.Rand) any {
		return []string{"a", "b", "c", "d", "e"}[r.Intn(5)]
	}},
	{"Shuffle", func(s *Source) any {
		items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		Shuffle(s, items)
		return items
	}, func(r *rand.Rand) any {
		items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return items
	}},
	{"ForkSeed", func(s *Source) any { return s.ForkSeed("child") }, func(r *rand.Rand) any { return refForkSeed(r, "child") }},
	{"Fork", func(s *Source) any { return s.Fork("child").Float64() }, func(r *rand.Rand) any {
		return ref(refForkSeed(r, "child")).Float64()
	}},
	{"ForkN", func(s *Source) any { return s.ForkN("pool", 3)[2].Intn(1 << 30) }, func(r *rand.Rand) any {
		var seeds [3]int64
		for i := range seeds {
			seeds[i] = refForkSeed(r, fmt.Sprintf("pool/%d", i))
		}
		return ref(seeds[2]).Intn(1 << 30)
	}},
}

// edgeSeeds are the edges of Seed's reduction: 0 and its stand-in
// 89482311, the modulus, its neighbours and its multiples, both ends of
// int64.
var edgeSeeds = []int64{0, 1, -1, 7, 42, -7, lcgMod, lcgMod - 1, lcgMod + 1, 2 * lcgMod, -lcgMod,
	89482311, math.MinInt64, math.MaxInt64}

// diffSeeds are the differential's seeds: the edges and 200 arbitrary ones.
func diffSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	r := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// boundaries are the draw counts at which the generator changes state or
// the register wraps: either side of the closed-form threshold, of the
// tap distance and of the register length.
var boundaries = []int{0, 7, closedDraws - 1, closedDraws, closedDraws + 1, regTap, regTap + 1, regLen - 1, regLen, regLen + 1}

// sameDraws fails unless got agrees with the oracle want on every helper,
// drawn in turn starting from helper first, n draws in all.
func sameDraws(t *testing.T, got *Source, want *rand.Rand, first, n int, ctx string) {
	t.Helper()
	for i := 0; i < n; i++ {
		h := helpers[(first+i)%len(helpers)]
		if g, w := h.draw(got), h.ref(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: draw %d (%s) = %v, math/rand gives %v", ctx, i, h.name, g, w)
		}
	}
}

// TestLazySeedingMatchesMathRand is the differential of record: however
// a Source comes to be — New, Stream, Fork, Reseed of a fresh or of a
// used source — and whichever helper draws from it first, it is draw for
// draw the rand.New(rand.NewSource(seed)) it used to build at
// construction: over 2 000 mixed helper calls, raw value by raw value
// across the fill, and through every helper from each boundary count.
func TestLazySeedingMatchesMathRand(t *testing.T) {
	const label = "jitter/me-PAK-3/0"
	for _, seed := range diffSeeds() {
		streamSeed := labelHash(label) ^ seed
		makers := []struct {
			name string
			lazy func() *Source
			want int64 // the seed the source must behave as built from
		}{
			{"New", func() *Source { return New(seed) }, seed},
			{"Stream", func() *Source { return Stream(seed, label) }, streamSeed},
			{"Fork", func() *Source { return New(seed).Fork(label) }, refForkSeed(ref(seed), label)},
			{"Reseed/fresh", func() *Source {
				s := New(999)
				s.Reseed(seed, label)
				if s.r != nil {
					t.Fatal("Reseed built the generator of a source nothing has drawn from")
				}
				return s
			}, streamSeed},
			{"Reseed/used", func() *Source {
				s := New(999)
				s.Normal(0, 1)
				s.Reseed(seed, label)
				return s
			}, streamSeed},
		}
		for _, mk := range makers {
			for first := range helpers {
				sameDraws(t, mk.lazy(), ref(mk.want), first, 1+2*len(helpers),
					fmt.Sprintf("seed %d, %s, %s first", seed, mk.name, helpers[first].name))
			}
		}
		sameDraws(t, New(seed), ref(seed), int(uint64(seed)%7), 2000, fmt.Sprintf("seed %d, mixed", seed))

		// The reference itself, unwrapped: the raw 64-bit values are
		// math/rand's across the closed form, the fill and two laps of
		// the register.
		var g lfg
		g.Seed(seed)
		raw := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2*regLen+closedDraws+10; i++ {
			if got, want := g.Uint64(), raw.Uint64(); got != want {
				t.Fatalf("seed %d: raw draw %d = %#x, math/rand gives %#x", seed, i, got, want)
			}
		}
		for _, c := range boundaries {
			got, want := New(seed), ref(seed)
			for i := 0; i < c; i++ {
				got.gen.Int63()
				want.Int63()
			}
			sameDraws(t, got, want, c, len(helpers), fmt.Sprintf("seed %d, after %d raw draws", seed, c))
		}
	}
	// An undrawn stream is its few words: one allocation, no generator.
	if a := testing.AllocsPerRun(100, func() { Stream(7, label) }); a > 1 {
		t.Errorf("Stream allocates %.0f times, want at most 1", a)
	}
}

// TestReseedAcrossStates: Reseed equals a fresh Stream from every state
// a source can be in — undrawn, mid closed form, at the threshold, on a
// live register, and live a second time on the register it kept.
func TestReseedAcrossStates(t *testing.T) {
	const label = "chaos/me-GEO-1/2/POST /v3/tasks/lease/4"
	s := New(999)
	for round, c := range append(boundaries, 2000, 3) {
		for i := 0; i < c; i++ {
			s.Float64()
		}
		seed := int64(42 + round)
		s.Reseed(seed, label)
		want := Stream(seed, label)
		for i := 0; i < 40; i++ {
			h := helpers[(round+i)%len(helpers)]
			if g, w := h.draw(s), h.draw(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("after %d draws: draw %d (%s) = %v, Stream gives %v", c, i, h.name, g, w)
			}
		}
		s.Reseed(seed, label)
		sameDraws(t, s, ref(labelHash(label)^seed), round, 3*regLen, fmt.Sprintf("after %d draws, against math/rand", c))
	}
}

// FuzzSourceMatchesMathRand: for any seed, any number of raw draws in,
// the generator and every helper after it are math/rand's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(closedDraws))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		got, want := New(seed), ref(seed)
		for i := 0; i < int(draws); i++ {
			if g, w := got.gen.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: raw draw %d = %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
		sameDraws(t, got, want, int(draws), len(helpers), fmt.Sprintf("seed %d, after %d raw draws", seed, draws))
	})
}

// FuzzSkipMatchesFloat64: from every boundary state, Skip(n) leaves the
// source where math/rand's n Float64 calls leave the oracle, so every
// helper after it draws what the oracle draws.
func FuzzSkipMatchesFloat64(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16([]int{0, 1, 25, closedDraws + 1, regLen + 3}[i%5]))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		for _, c := range boundaries {
			got, want := New(seed), ref(seed)
			for i := 0; i < c; i++ {
				got.gen.Int63()
				want.Int63()
			}
			got.Skip(int(n))
			for i := 0; i < int(n); i++ {
				want.Float64()
			}
			sameDraws(t, got, want, c, len(helpers), fmt.Sprintf("seed %d, %d raw draws, Skip(%d)", seed, c, n))
		}
	})
}

// TestFloat64ResamplesOne plants a register sum whose Int63 rounds to
// 2⁶³ — the draw math/rand's Float64 takes again — and holds Float64 and
// Skip to rand.Rand over an identical register: both consume it and the
// draw after it.
func TestFloat64ResamplesOne(t *testing.T) {
	s := New(5)
	for i := 0; i <= closedDraws; i++ {
		s.Float64()
	}
	tap, feed := (s.gen.tap+regLen-1)%regLen, (s.gen.feed+regLen-1)%regLen
	s.gen.vec[feed] = math.MaxInt64 - 200 - s.gen.vec[tap] // the next sum, within 2⁹ of 2⁶³
	planted := s.gen
	vec := *s.gen.vec
	planted.vec = &vec
	clone := func() *lfg { // a copy of the planted generator, register and all
		g := planted
		vec := *planted.vec
		g.vec = &vec
		return &g
	}
	want, afterOne := rand.New(clone()), rand.New(clone())
	afterOne.Float64()
	skipped := &Source{gen: *clone()}
	skipped.Skip(1)
	if g, w := s.Float64(), want.Float64(); g != w || g == 1 {
		t.Fatalf("Float64 over the planted word = %v, math/rand gives %v", g, w)
	}
	if s.gen.feed != (feed+regLen-1)%regLen {
		t.Fatalf("Float64 took %d raw draws, want 2", (feed-s.gen.feed+regLen)%regLen+1)
	}
	sameDraws(t, s, want, 0, 3*len(helpers), "after the planted word")
	sameDraws(t, skipped, afterOne, 0, 3*len(helpers), "after Skip(1) over the planted word")
}

// TestSourceAllocations: a stream pays for what it draws. A chaos
// decision's seven draws build the Source alone: Float64 draws straight
// off the seed, with no rand.Rand and no register. A long stream adds the
// register and nothing else — two objects where a drawn-from source cost
// three (Source, Rand, rngSource) at commit dd40cbb.
func TestSourceAllocations(t *testing.T) {
	var s *Source
	if a := testing.AllocsPerRun(100, func() {
		s = Stream(7, "chaos/me-PAK-3/0/POST /v3/results/1")
		for i := 0; i < 7; i++ {
			s.Float64()
		}
	}); a > 1 || s.gen.vec != nil || s.r != nil {
		t.Errorf("a 7-draw stream allocates %.0f objects (register: %v, rand.Rand: %v), want 1 and neither", a, s.gen.vec != nil, s.r != nil)
	}
	if a := testing.AllocsPerRun(100, func() {
		s = New(42)
		for i := 0; i < 1000; i++ {
			s.Float64()
		}
	}); a > 2 {
		t.Errorf("a 1000-draw source allocates %.0f objects, want 2", a)
	}
	s.Float64()
	if a := testing.AllocsPerRun(100, func() {
		s.Reseed(7, "x")
		for i := 0; i < 1000; i++ {
			s.Float64()
		}
	}); a != 0 {
		t.Errorf("refilling a kept register allocates %.0f objects, want 0", a)
	}
}

var sink float64

// BenchmarkReseedDraw7 is one chaos decision: a pooled source reseeded to
// a labelled stream and drawn from seven times (≈ 9 400 ns at dd40cbb,
// which filled a register per reseed).
func BenchmarkReseedDraw7(b *testing.B) {
	s := New(1)
	s.Float64()
	for i := 0; i < b.N; i++ {
		s.Reseed(int64(i), "chaos/me-PAK-3/0/POST /v3/results/1")
		for j := 0; j < 7; j++ {
			sink += s.Float64()
		}
	}
}

// BenchmarkDrawLong is the steady state of a stream on its register
// (4.3–5.3 ns per Float64 at dd40cbb).
func BenchmarkDrawLong(b *testing.B) {
	s := New(1)
	for i := 0; i <= closedDraws; i++ {
		s.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
}

// BenchmarkSkip is a video segment's skipped RTT: 25 draws off a live
// register, against 25 Float64 calls in BenchmarkDrawLong's terms.
func BenchmarkSkip(b *testing.B) {
	s := New(1)
	for i := 0; i <= closedDraws; i++ {
		s.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Skip(25)
	}
}
