package rng

import "math/rand"

// The shape of math/rand's seeded source (package doc, "What a seed costs").
const (
	regLen, regTap = 607, 273
	lcgMod, lcgMul = 1<<31 - 1, 48271
	seedSkip       = 21 // chain values Seed discards, plus one

	// closedDraws is how many draws a stream answers from its seed before
	// it fills a register; regTap is the most the register's shape allows.
	// A closed-form draw measures ≈ 16 ns against ≈ 3 ns off the register
	// and a fill ≈ 5.4 µs, so the break-even (≈ 400 draws) lies beyond it:
	// stopping short is always cheaper unfilled, and going on costs ≈ the
	// 9.4 µs rngSource.Seed charged every stream (EXPERIMENTS.md "O(1) seeding").
	closedDraws = regTap
)

var lcgPow [seedSkip + 3*regLen]uint32 // lcgPow[k] = lcgMul^k mod lcgMod
var cooked [regLen]int64               // math/rand's rngCooked, recovered in init

// mulmod is a·b mod lcgMod for a, b < 2³¹ by two folds of the Mersenne
// modulus; it is 0 only if a or b is.
func mulmod(a, b uint64) uint64 {
	y := a * b
	y = y&lcgMod + y>>31
	if y = y&lcgMod + y>>31; y >= lcgMod {
		y -= lcgMod
	}
	return y
}

// init builds the power table, then recovers the XOR table from the
// toolchain's own generator: regLen draws overwrite every register word
// once, so they are the register; undoing them last to first gives the
// words Seed wrote, and word over those XORs the chain back out.
func init() {
	lcgPow[0] = 1
	for k := 1; k < len(lcgPow); k++ {
		lcgPow[k] = uint32(mulmod(uint64(lcgPow[k-1]), lcgMul))
	}
	ref := rand.NewSource(1).(rand.Source64)
	for j := range cooked { // draw j wrote word (regLen-regTap-1-j) mod regLen …
		cooked[(2*regLen-regTap-1-j)%regLen] = int64(ref.Uint64())
	}
	for j := regLen - 1; j >= 0; j-- { // … by adding word regLen-1-j to it
		cooked[(2*regLen-regTap-1-j)%regLen] -= cooked[regLen-1-j]
	}
	for i := range cooked {
		cooked[i] = word(1, i)
	}
}

// lfg is math/rand's rngSource value for value, its register filled on
// demand; TestLazySeedingMatchesMathRand holds it to the toolchain's.
type lfg struct {
	seed      uint32         // Seed's argument reduced into [1, lcgMod)
	n         int32          // draws answered in closed form; -1 once vec is live
	tap, feed int            // as in rngSource; meaningful when n < 0
	vec       *[regLen]int64 // allocated by the first fill, kept across Seed
}

// Seed reduces its argument exactly as rngSource.Seed does.
func (g *lfg) Seed(seed int64) {
	if seed %= lcgMod; seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	g.seed, g.n = uint32(seed), 0
}

// word is register word i as rngSource.Seed(seed) would have written it.
func word(seed uint32, i int) int64 {
	p, s := lcgPow[seedSkip+3*i:][:3], uint64(seed)
	return int64(mulmod(uint64(p[0]), s)<<40^mulmod(uint64(p[1]), s)<<20^mulmod(uint64(p[2]), s)) ^ cooked[i]
}

// Int63 and Uint64 inline step (rngSource.Uint64): no call under rand.Rand's own.
func (g *lfg) Int63() int64 {
	if g.n >= 0 {
		return int64(g.closed() &^ (1 << 63))
	}
	return int64(g.step() &^ (1 << 63))
}

func (g *lfg) Uint64() uint64 {
	if g.n >= 0 {
		return g.closed()
	}
	return g.step()
}

func (g *lfg) step() uint64 {
	tap, feed := g.tap-1, g.feed-1
	if tap < 0 {
		tap += regLen
	}
	if feed < 0 {
		feed += regLen
	}
	g.tap, g.feed = tap, feed
	x := g.vec[feed] + g.vec[tap]
	g.vec[feed] = x
	return uint64(x)
}

// closed answers draw n from the seed alone or, past closedDraws, fills
// the register, replays the draws already answered and draws from it.
func (g *lfg) closed() uint64 {
	if g.n < closedDraws {
		j := int(g.n)
		g.n++
		return uint64(word(g.seed, regLen-regTap-1-j) + word(g.seed, regLen-1-j))
	}
	if g.vec == nil {
		g.vec = new([regLen]int64)
	}
	for i := range g.vec {
		g.vec[i] = word(g.seed, i)
	}
	g.tap, g.feed, g.n = 0, regLen-regTap, -1
	for j := 0; j < closedDraws; j++ {
		g.step()
	}
	return g.step()
}
