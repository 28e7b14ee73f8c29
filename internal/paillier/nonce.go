package paillier

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"sync"
)

// Blinding factors take the Damgård–Jurik–Nielsen fast-encryption form
// h_s^x mod n²: a fixed base h_s = h^n mod n² — an n-th residue, so every
// power of it blinds correctly — raised to a fresh short exponent x of
// ⌈|n|/2⌉ bits (rounded up to whole bytes). h = −y² mod n with y hashed from
// n, so the base costs no randomness, no wire byte and no agreement: only
// the encryptor ever uses it. DESIGN.md §8 states the assumption.
//
// Because the base is fixed, its powers are tabulated once per key as a
// Lim–Lee comb: the exponent is cut into combRows blocks of a bits, each
// block into combCols sub-blocks of b = ⌈a/2⌉ bits, and entry (j, u) holds
// Π_{i ∈ u} h_s^(2^(i·a+j·b)). A factor is then b−1 squarings of the
// accumulator and at most combCols·b table multiplications — 31 + 64 at
// 1024-bit keys, against the ≈ 1 280 of a full-width exponentiation — and
// the table is 2·255 entries in one slab (128 KiB at 1024 bits, ≈ 1 000
// multiplications to build). Shape and exponent length are functions of |n|
// alone. Table and walk live in Montgomery form (mont.go): every one of
// those multiplications is one Montgomery product, and a factor leaves the
// form once, at the end of its walk.
const (
	combRows = 8
	combCols = 2

	nonceBaseTag = "pem/paillier/djn-nonce-base/v1"
)

// nonceTable is a key's comb table, built by the first BlindingFactor, and
// next to it the key's stock of ready factors (see NoncePool) and the
// Montgomery reducer every product mod n² under the key goes through.
type nonceTable struct {
	pool NoncePool
	red  mont
	once sync.Once
	// xLen is the exponent length in bytes; with combRows = 8 it is also
	// the block width a in bits.
	xLen int
	// entries holds entry j<<combRows|u in Montgomery form, as the stripe
	// entry(j<<combRows|u) of n²'s word length; u = 0 is never read.
	entries []big.Word
}

// nonceBase derives h = −y² mod n, y = SHA-256 in counter mode over
// nonceBaseTag ‖ n, reduced mod n.
func nonceBase(n *big.Int) *big.Int {
	nb := n.Bytes()
	var stream []byte
	for ctr := uint32(0); len(stream) <= len(nb); ctr++ {
		d := sha256.New()
		d.Write([]byte(nonceBaseTag))
		d.Write(nb)
		d.Write(binary.BigEndian.AppendUint32(nil, ctr))
		stream = d.Sum(stream)
	}
	h := new(big.Int).SetBytes(stream)
	h.Mul(h, h)
	h.Neg(h)
	return h.Mod(h, n)
}

// holder returns the one nonceTable hanging off pk, installing an unbuilt,
// empty one (but its reducer) first. It hangs off the key through a pointer
// so that keys stay copyable and table and stock die with their key.
func (pk *PublicKey) holder() *nonceTable {
	t, _ := pk.table.Load().(*nonceTable)
	if t == nil {
		pk.table.CompareAndSwap(nil, &nonceTable{pool: NoncePool{pk: pk}, red: newMont(pk.N2)})
		t = pk.table.Load().(*nonceTable)
	}
	return t
}

// nonces returns pk's comb table, building it on first use. Concurrent
// first users wait on the one build.
func (pk *PublicKey) nonces() *nonceTable {
	t := pk.holder()
	t.once.Do(func() { t.build(pk.N, pk.N2) })
	return t
}

// Pool returns the key's one stock of blinding factors. Asking builds and
// computes nothing; the first Take does.
func (pk *PublicKey) Pool() *NoncePool { return &pk.holder().pool }

// entry returns table entry idx, in Montgomery form.
func (t *nonceTable) entry(idx int) []big.Word {
	w := len(t.red.mw)
	return t.entries[idx*w : (idx+1)*w : (idx+1)*w]
}

// build fills the table: h_s once by Exp, brought into Montgomery form,
// and every entry from it by products in the form.
func (t *nonceTable) build(n, n2 *big.Int) {
	s := GetScratch()
	defer s.Put()
	r := &t.red
	w := len(r.mw)
	pow, tmp := s.words(w), s.words(2*w)

	t.xLen = ((n.BitLen()+1)/2 + 7) / 8
	a, b := t.xLen, (t.xLen+1)/2
	t.entries = make([]big.Word, (combCols<<combRows)*w)

	// The 16 single-bit entries h_s^(2^(i·a+j·b)), by repeated squaring.
	r.mul(pow, load(pow, s.Int().Exp(nonceBase(n), n, n2)), r.rr, tmp)
	for i := 0; i < combRows; i++ {
		for j, step := range [combCols]int{b, a - b} {
			copy(t.entry(j<<combRows|1<<i), pow)
			for ; step > 0; step-- {
				r.mul(pow, pow, pow, tmp)
			}
		}
	}
	// Every other entry is one multiplication away from a smaller one.
	for j := 0; j < combCols; j++ {
		for u := 3; u < 1<<combRows; u++ {
			if low := u & -u; low != u {
				row := j << combRows
				r.mul(t.entry(row|u), t.entry(row|u^low), t.entry(row|low), tmp)
			}
		}
	}
}

// exp computes h_s^x mod n² for the big-endian exponent x of t.xLen bytes.
// The accumulator stays in Montgomery form and leaves it once, at the end.
func (t *nonceTable) exp(x []byte) *big.Int {
	s := GetScratch()
	defer s.Put()
	r := &t.red
	acc, tmp := s.words(len(r.mw)), s.words(2*len(r.mw))
	copy(acc, r.one)

	a, b := t.xLen, (t.xLen+1)/2
	for k := b - 1; k >= 0; k-- {
		r.mul(acc, acc, acc, tmp)
		for j := 0; j < combCols && j*b+k < a; j++ {
			u := 0
			for i := combRows - 1; i >= 0; i-- {
				bit := i*a + j*b + k
				u = u<<1 | int(x[len(x)-1-bit>>3]>>(bit&7)&1)
			}
			if u != 0 {
				r.mul(acc, acc, t.entry(j<<combRows|u), tmp)
			}
		}
	}
	return r.exit(acc, tmp)
}
