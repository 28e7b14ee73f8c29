package paillier

import (
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"math/bits"
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
// alone.
const (
	combRows = 8
	combCols = 2

	nonceBaseTag = "pem/paillier/djn-nonce-base/v1"
)

// nonceTable is a key's comb table, built by the first BlindingFactor, and
// next to it the key's stock of ready factors (see NoncePool) and the
// reducer every product mod n² under the key goes through.
type nonceTable struct {
	pool NoncePool
	red  barrett
	once sync.Once
	// xLen is the exponent length in bytes; with combRows = 8 it is also
	// the block width a in bits.
	xLen int
	// entries[j<<combRows|u] views one n²-wide stripe of a shared slab;
	// u = 0 is never read.
	entries []big.Int
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

// barrett reduces modulo m without long division (HAC 14.42). With b =
// 2^W, k the word length of m and μ = ⌊b^(2k)/m⌋, for 0 ≤ t < b^(2k) the
// estimate q = ⌊⌊t/b^(k−1)⌋·μ/b^(k+1)⌋ falls at most 2 short of ⌊t/m⌋: two
// multiplications, two shifts and at most two subtractions, where QuoRem
// normalizes both operands and divides word by word.
type barrett struct {
	m, mu *big.Int
	k     uint
}

func newBarrett(m *big.Int) barrett {
	k := uint(len(m.Bits()))
	mu := new(big.Int).Lsh(one, 2*k*bits.UintSize)
	return barrett{m: m, mu: mu.Quo(mu, m), k: k}
}

// mulMod sets r = x·y mod m with every temporary in q and t; r may alias x
// or y.
func (b *barrett) mulMod(r, q, t, x, y *big.Int) {
	t.Mul(x, y)
	if t.Sign() < 0 || uint(len(t.Bits())) > 2*b.k { // outside Barrett's range
		r.Mod(t, b.m)
		return
	}
	q.Rsh(t, (b.k-1)*bits.UintSize)
	r.Mul(q, b.mu)
	q.Rsh(r, (b.k+1)*bits.UintSize)
	r.Mul(q, b.m)
	r.Sub(t, r)
	for r.Cmp(b.m) >= 0 {
		r.Sub(r, b.m)
	}
}

// holder returns the one nonceTable hanging off pk, installing an unbuilt,
// empty one (but its reducer) first. It hangs off the key through a pointer
// so that keys stay copyable and table and stock die with their key.
func (pk *PublicKey) holder() *nonceTable {
	t, _ := pk.table.Load().(*nonceTable)
	if t == nil {
		pk.table.CompareAndSwap(nil, &nonceTable{pool: NoncePool{pk: pk}, red: newBarrett(pk.N2)})
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

// mulMod returns x·y mod n² in an integer of s.
func (pk *PublicKey) mulMod(s *Scratch, x, y *big.Int) *big.Int {
	r := s.Int()
	pk.holder().red.mulMod(r, s.Int(), s.Int(), x, y)
	return r
}

func (t *nonceTable) build(n, n2 *big.Int) {
	s := GetScratch()
	defer s.Put()
	q, prod, pow := s.Int(), s.Int(), s.Int()

	t.xLen = ((n.BitLen()+1)/2 + 7) / 8
	a, b := t.xLen, (t.xLen+1)/2
	w := len(n2.Bits())
	slab := make([]big.Word, (combCols<<combRows)*w)
	t.entries = make([]big.Int, combCols<<combRows)
	set := func(idx int, v *big.Int) {
		stripe := slab[idx*w : (idx+1)*w : (idx+1)*w]
		t.entries[idx].SetBits(stripe[:copy(stripe, v.Bits())])
	}

	// The 16 single-bit entries h_s^(2^(i·a+j·b)), by repeated squaring.
	pow.Exp(nonceBase(n), n, n2)
	for i := 0; i < combRows; i++ {
		for j, step := range [combCols]int{b, a - b} {
			set(j<<combRows|1<<i, pow)
			for ; step > 0; step-- {
				t.red.mulMod(pow, q, prod, pow, pow)
			}
		}
	}
	// Every other entry is one multiplication away from a smaller one.
	for j := 0; j < combCols; j++ {
		row := t.entries[j<<combRows : (j+1)<<combRows]
		for u := 3; u < len(row); u++ {
			if low := u & -u; low != u {
				t.red.mulMod(pow, q, prod, &row[u^low], &row[low])
				set(j<<combRows|u, pow)
			}
		}
	}
}

// exp computes h_s^x mod n² for the big-endian exponent x of t.xLen bytes.
func (t *nonceTable) exp(x []byte) *big.Int {
	s := GetScratch()
	defer s.Put()
	q, prod, acc := s.Int(), s.Int(), s.Int().SetUint64(1)

	a, b := t.xLen, (t.xLen+1)/2
	for k := b - 1; k >= 0; k-- {
		t.red.mulMod(acc, q, prod, acc, acc)
		for j := 0; j < combCols && j*b+k < a; j++ {
			u := 0
			for i := combRows - 1; i >= 0; i-- {
				bit := i*a + j*b + k
				u = u<<1 | int(x[len(x)-1-bit>>3]>>(bit&7)&1)
			}
			if u != 0 {
				t.red.mulMod(acc, q, prod, acc, &t.entries[j<<combRows|u])
			}
		}
	}
	return new(big.Int).Set(acc)
}
