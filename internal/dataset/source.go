package dataset

import mrand "math/rand"

// daySource is math/rand's seeded source (rngSource) bit for bit: the same
// 607-word additive lagged-Fibonacci register with tap 273, seeded the same
// way, so a *mrand.Rand over it draws every stream mrand.NewSource would
// (DESIGN.md §10). Only seeding differs: rngSource steps x ← 48271·x mod
// 2³¹−1 by two divisions, 1 841 times in one chain; Seed takes each word's
// three steps at once, as Mersenne-reduced products of one x.
type daySource struct {
	tap, feed int
	vec       [srcLen]int64
}

const srcLen, srcTap, srcMod, srcA = 607, 273, 1<<31 - 1, 48271 // register length, tap; seed modulus, multiplier

// srcCooked is rngSource's table of cooked words, read back at init.
var srcCooked [srcLen]int64

// init recovers srcCooked from math/rand itself. A source's first 607
// outputs each overwrite one register word, so placed where they landed
// they are its register after 607 steps. Undoing those steps (word −= its
// tap word, newest first) leaves the seeded register V, and seeding with V
// as the table writes V ⊕ the uncooked words: the cooked ones.
func init() {
	src, v, feed := mrand.NewSource(1).(mrand.Source64), &srcCooked, srcLen-srcTap
	for range srcLen {
		feed = (feed + srcLen - 1) % srcLen
		v[feed] = int64(src.Uint64())
	}
	for range srcLen {
		v[feed] -= v[(feed+srcTap)%srcLen]
		feed = (feed + 1) % srcLen
	}
	var s daySource
	s.Seed(1)
	srcCooked = s.vec
}

// mulMod returns x·c mod 2³¹−1 for x, c below it: the product's low and
// high 31 bits sum to a residue below twice the modulus.
func mulMod(x, c uint64) uint64 {
	if x = x*c&srcMod + x*c>>31; x >= srcMod {
		x -= srcMod
	}
	return x
}

// Seed resets the register as rngSource.Seed does.
func (s *daySource) Seed(seed int64) {
	s.tap, s.feed = 0, srcLen-srcTap
	x := uint64((seed%srcMod + srcMod) % srcMod)
	if x == 0 {
		x = 89482311
	}
	const a2, a3 = srcA * srcA % srcMod, srcA * srcA % srcMod * srcA % srcMod
	x = mulMod(x, 2075782095) // 48271²⁰ mod 2³¹−1: rngSource's 20 warm-up steps
	for i := range s.vec {
		x1, x2, x3 := mulMod(x, srcA), mulMod(x, a2), mulMod(x, a3)
		s.vec[i], x = int64(x1<<40^x2<<20^x3)^srcCooked[i], x3
	}
}

// Uint64 steps the register as rngSource.Uint64 does.
func (s *daySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += srcLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += srcLen
	}
	s.vec[s.feed] += s.vec[s.tap]
	return uint64(s.vec[s.feed])
}

// Int63 is Uint64 with its top bit cleared, as in rngSource.
func (s *daySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
