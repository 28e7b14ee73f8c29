package paillier

import (
	"math/big"
	"math/bits"
)

// mont multiplies modulo an odd m of n words in Montgomery form, R =
// 2^(W·n): a value x stands for x·R mod m, and mul(x, y) = x·y·R⁻¹ mod m
// costs two passes of addMulVVW per word of y — one adds x·y_i, one adds
// the multiple of m that clears the low word — and no division: 2n² word
// products in all, where a quotient estimate (Barrett's) costs two full
// multiplications on top of x·y.
//
// mul is the "almost Montgomery multiplication": inputs and output lie in
// [0, R), not [0, m). For x, y < R the sum x·y + q·m, q < R, stays below
// R·(R+m), so its top half is below R+m and one subtraction of m, taken
// only when the word loop carries out, brings it under R. Values therefore
// stay n words wide throughout and are reduced to [0, m) once, on the way
// out (exit).
type mont struct {
	m     *big.Int
	mw    []big.Word // m's n words
	rr    []big.Word // R² mod m: mul(x, rr) brings x into the form
	split []big.Word // 2^|m|·R mod m, for mulMod
	one   []big.Word // R mod m: 1 in the form
	unit  []big.Word // 1: mul(x, unit) takes x out of the form
	k0    big.Word   // −m⁻¹ mod 2^W
}

func newMont(m *big.Int) mont {
	n := len(m.Bits())
	words := func(e uint) []big.Word {
		r := new(big.Int).Lsh(one, e)
		return append(make([]big.Word, 0, n), r.Mod(r, m).Bits()...)[:n]
	}
	// Newton's iteration for m₀⁻¹ mod 2^W: m₀ is its own inverse mod 8,
	// and each step doubles the correct low bits.
	m0 := m.Bits()[0]
	inv := m0
	for i := 3; i < bits.UintSize; i *= 2 {
		inv *= 2 - m0*inv
	}
	wn := uint(n) * bits.UintSize
	return mont{m: m, mw: m.Bits(), rr: words(2 * wn), split: words(uint(m.BitLen()) + wn),
		one: words(wn), unit: words(0), k0: -inv}
}

// mul sets z = x·y·R⁻¹ mod m, below R, for x and y of n words below R. t is
// 2n words of scratch; z may alias x or y. A zero word of y costs no pass.
func (r *mont) mul(z, x, y, t []big.Word) {
	n := len(r.mw)
	clear(t)
	var c big.Word
	for i := 0; i < n; i++ {
		w := t[i : n+i]
		c2 := big.Word(0)
		if y[i] != 0 {
			c2 = addMulVVW(w, x, y[i])
		}
		c3 := addMulVVW(w, r.mw, w[0]*r.k0)
		cx := c + c2
		cy := cx + c3
		t[n+i] = cy
		c = 0
		if cx < c2 || cy < c3 {
			c = 1
		}
	}
	if c != 0 {
		r.sub(z, t[n:]) // the borrow cancels c
	} else {
		copy(z, t[n:])
	}
}

// sub sets z = x − m, dropping the borrow out of the top word.
func (r *mont) sub(z, x []big.Word) {
	var b uint
	for i, m := range r.mw {
		var d uint
		d, b = bits.Sub(uint(x[i]), uint(m), b)
		z[i] = big.Word(d)
	}
}

// exit returns x·R⁻¹ mod m, fully reduced: the value x stands for, in a
// new integer. t is 2n words of scratch.
func (r *mont) exit(x, t []big.Word) *big.Int {
	z := make([]big.Word, len(x))
	r.mul(z, x, r.unit, t) // at most m
	i := len(z) - 1
	for i > 0 && z[i] == r.mw[i] {
		i--
	}
	if z[i] >= r.mw[i] {
		r.sub(z, z)
	}
	return new(big.Int).SetBits(z)
}

// mulMod sets z = x·y mod m for x and y in [0, m) and returns z; z may
// alias x or y. A lone product has no form to stay in, so it is taken
// whole and split at ℓ = |m| bits, x·y = h·2^ℓ + l with h and l below
// 2^ℓ: mul(h, split) ≡ h·2^ℓ (mod m) is below 2m and l below 2m, so at
// most three subtractions finish it. That is one multiplication and one
// Montgomery product, where entering and leaving the form would cost two
// products.
func (r *mont) mulMod(s *Scratch, z, x, y *big.Int) *big.Int {
	n, l := len(r.mw), uint(r.m.BitLen())
	prod, high, low := s.Int().Mul(x, y), s.Int(), s.Int()
	low.Sub(prod, low.Lsh(high.Rsh(prod, l), l))
	h, t := s.words(n), s.words(2*n)
	r.mul(h, load(h, high), r.split, t)
	for z.Add(setWords(z, h), low); z.Cmp(r.m) >= 0; {
		z.Sub(z, r.m)
	}
	return z
}

// load sets w to x, which must fit in len(w) words, and returns w.
func load(w []big.Word, x *big.Int) []big.Word {
	clear(w[copy(w, x.Bits()):])
	return w
}

// setWords sets z to the value of w in z's own storage, with room for one
// word more, and returns z.
func setWords(z *big.Int, w []big.Word) *big.Int {
	b := z.Bits()
	if cap(b) <= len(w) {
		b = make([]big.Word, len(w), len(w)+1)
	}
	return z.SetBits(b[:copy(b[:len(w)], w)])
}
