// Package paillier implements the Paillier additively homomorphic public-key
// cryptosystem (Paillier, EUROCRYPT '99), the primary cryptographic building
// block of the PEM protocols (Section IV-A of the paper).
//
// Supported operations:
//
//   - key generation (512/1024/2048-bit moduli, matching the paper's sweep)
//   - encryption with the fast generator g = n+1
//   - CRT decryption, and packed decryption: a key holder decrypts several
//     ciphertexts whose plaintexts are known to be narrow as one plaintext
//     cut into fixed-width slots, opened modulo p alone with one
//     prime-sized exponentiation (DecryptSlots). The same slot layout lets
//     a sender put two narrow values in one ciphertext (Pack / Unpack);
//     see slots.go
//   - homomorphic addition of ciphertexts (ciphertext multiplication mod n²),
//     addition of a plaintext constant, and multiplication by a plaintext
//     scalar (ciphertext exponentiation), which Protocol 4 uses for the
//     reciprocal trick
//   - signed plaintext encoding in [-n/2, n/2)
//   - compact binary serialization of keys and ciphertexts for the wire
//
// The package is deterministic given the caller-provided randomness source,
// which the test suite exploits; production callers pass crypto/rand.Reader.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sync/atomic"
)

var (
	one = big.NewInt(1)

	// ErrMessageTooLarge is returned when a plaintext does not fit the
	// signed embedding range of the key.
	ErrMessageTooLarge = errors.New("paillier: message out of range for key")
	// ErrInvalidCiphertext is returned when a ciphertext is not an element
	// of Z*_{n²}.
	ErrInvalidCiphertext = errors.New("paillier: invalid ciphertext")
	// ErrKeyWiped is returned when decrypting with a private key whose
	// secret half has been zeroed by Wipe.
	ErrKeyWiped = errors.New("paillier: private key has been wiped")
)

// PublicKey holds the public parameters (n, g=n+1).
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // n²

	// table holds the *nonceTable behind BlindingFactor (see nonce.go),
	// installed by the first encryption under this key. An atomic.Value
	// rather than a lock or atomic.Pointer so keys stay copyable.
	table atomic.Value
}

// PrivateKey holds the factorization and precomputed CRT constants.
type PrivateKey struct {
	PublicKey
	p, q *big.Int

	// Textbook parameters.
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // (L(g^lambda mod n²))^{-1} mod n

	// CRT acceleration.
	p2, q2    *big.Int // p², q²
	hp, hq    *big.Int // L_p(g^{p-1} mod p²)^{-1} mod p, resp. q
	pInvQ     *big.Int // p^{-1} mod q
	pMinusOne *big.Int
	qMinusOne *big.Int
	p2red     mont // Montgomery reducer mod p², for DecryptSlots' fold
}

// Ciphertext is a Paillier ciphertext c ∈ Z*_{n²}.
type Ciphertext struct {
	// C is the ciphertext value.
	C *big.Int
}

// GenerateKey creates a Paillier key pair with an n of the given bit length.
// bits must be at least 64 (tiny keys are for tests only; use ≥2048 in any
// real deployment).
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: modulus size %d too small (min 64)", bits)
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, err := randomPrime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("generate p: %w", err)
		}
		q, err := randomPrime(random, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("generate q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		key, err := newPrivateKey(p, q)
		if err != nil {
			// Degenerate primes (gcd(n, φ(n)) ≠ 1); retry.
			continue
		}
		return key, nil
	}
}

// randomPrime draws a prime of exactly the given bit length from random by
// rejection sampling, like crypto/rand.Prime but without its deliberate
// MaybeReadByte nondeterminism — that single conditionally-consumed byte
// would make seeded key generation irreproducible, and the durability
// layer's crash-recovery oracle replays runs bit-for-bit, key fingerprints
// included. The top two candidate bits are set so p·q never comes up a bit
// short. A candidate with a factor below 2^12 is dropped before Miller–Rabin
// sees it; that rejects only composites, so the same bytes yield the same
// prime.
func randomPrime(random io.Reader, bits int) (*big.Int, error) {
	if bits < 2 {
		return nil, errors.New("paillier: prime size must be at least 2-bit")
	}
	b := uint(bits % 8)
	if b == 0 {
		b = 8
	}
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, err
		}
		buf[0] &= uint8(int(1<<b) - 1)
		if b >= 2 {
			buf[0] |= 3 << (b - 2)
		} else {
			// b == 1: the top bit lives alone in buf[0].
			buf[0] |= 1
			if len(buf) > 1 {
				buf[1] |= 0x80
			}
		}
		buf[len(buf)-1] |= 1 // candidates must be odd
		p.SetBytes(buf)
		if (bits <= sieveBits || !hasSmallFactor(p)) && p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// sieveBits bounds the sieve's primes: all odd primes below 2^sieveBits,
// packed into products that fit a uint64, so a candidate meets each group
// with one bits.Rem64 per word and a division of that residue per prime.
// The first group is 3·5·…·53, the primes ProbablyPrime itself tries first.
const sieveBits = 12

type sieveGroup struct {
	m      uint64
	primes []uint64
}

var sieve = func() (gs []sieveGroup) {
	var composite [1 << sieveBits]bool
	g := sieveGroup{m: 1}
	for q := uint64(3); q < 1<<sieveBits; q += 2 {
		if composite[q] {
			continue
		}
		for c := q * q; c < 1<<sieveBits; c += 2 * q {
			composite[c] = true
		}
		if hi, _ := bits.Mul64(g.m, q); hi != 0 {
			gs, g = append(gs, g), sieveGroup{m: 1}
		}
		g.m *= q
		g.primes = append(g.primes, q)
	}
	return append(gs, g)
}()

// hasSmallFactor reports whether p, which exceeds 2^sieveBits, has an odd
// prime factor below it.
func hasSmallFactor(p *big.Int) bool {
	w := p.Bits()
	for _, g := range sieve {
		var r uint64
		for i := len(w) - 1; i >= 0; i-- {
			if bits.UintSize == 32 {
				r = bits.Rem64(r>>32, r<<32|uint64(w[i]), g.m)
			} else {
				r = bits.Rem64(r, uint64(w[i]), g.m)
			}
		}
		for _, q := range g.primes {
			if r%q == 0 {
				return true
			}
		}
	}
	return false
}

func newPrivateKey(p, q *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	n2 := new(big.Int).Mul(n, n)

	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Div(new(big.Int).Mul(pm1, qm1), gcd)

	// g = n+1 ⇒ g^lambda mod n² = 1 + lambda*n, so
	// L(g^lambda) = lambda mod n and mu = lambda^{-1} mod n.
	mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
	if mu == nil {
		return nil, errors.New("paillier: lambda not invertible mod n")
	}

	p2 := new(big.Int).Mul(p, p)
	q2 := new(big.Int).Mul(q, q)

	// h_p = L_p(g^{p-1} mod p²)^{-1} mod p with g = n+1:
	// g^{p-1} mod p² = (1+n)^{p-1} = 1 + (p-1)n mod p², so
	// L_p = (p-1)q mod p = −q mod p and h_p = −q^{-1} mod p; likewise
	// h_q = −p^{-1} mod q. No exponentiation needed.
	pInvQ := new(big.Int).ModInverse(p, q)
	qInvP := new(big.Int).ModInverse(q, p)
	if pInvQ == nil || qInvP == nil {
		return nil, errors.New("paillier: p and q not coprime")
	}
	hp := qInvP.Sub(p, qInvP)
	hq := new(big.Int).Sub(q, pInvQ)

	return &PrivateKey{
		PublicKey: PublicKey{N: n, N2: n2},
		p:         p,
		q:         q,
		lambda:    lambda,
		mu:        mu,
		p2:        p2,
		q2:        q2,
		hp:        hp,
		hq:        hq,
		pInvQ:     pInvQ,
		pMinusOne: pm1,
		qMinusOne: qm1,
		p2red:     newMont(p2),
	}, nil
}

// Wipe zeroes the private half of the key in place — the factorization and
// everything derived from it, its reducer mod p² included — for a holder
// that has left for good. The public half stays readable; decrypting with a
// wiped key fails with ErrKeyWiped.
func (sk *PrivateKey) Wipe() {
	for _, x := range []*big.Int{sk.p, sk.q, sk.lambda, sk.mu, sk.p2, sk.q2, sk.hp, sk.hq, sk.pInvQ, sk.pMinusOne, sk.qMinusOne} {
		clear(x.Bits())
		x.SetInt64(0)
	}
	r := &sk.p2red
	for _, w := range [][]big.Word{r.mw, r.rr, r.split, r.one, r.unit} {
		clear(w)
	}
	r.k0 = 0
}

// Bits returns the modulus size in bits.
func (pk *PublicKey) Bits() int { return pk.N.BitLen() }

// encodeSignedInto maps a signed integer into Z_n (negative values wrap to
// n − |v|), landing the residue in dst (typically a Scratch integer). It
// returns ErrMessageTooLarge when |v| ≥ n/2. dst must not alias v.
func (pk *PublicKey) encodeSignedInto(dst, v *big.Int) error {
	dst.Rsh(pk.N, 1)
	if v.CmpAbs(dst) >= 0 {
		return ErrMessageTooLarge
	}
	if v.Sign() >= 0 {
		dst.Set(v)
	} else {
		dst.Add(pk.N, v)
	}
	return nil
}

// decodeSignedInPlace inverts encodeSignedInto: residues above n/2 are
// negative. m itself becomes the signed plaintext and is returned. half is
// scratch for the n/2 bound.
func (pk *PublicKey) decodeSignedInPlace(half, m *big.Int) *big.Int {
	half.Rsh(pk.N, 1)
	if m.Cmp(half) > 0 {
		m.Sub(m, pk.N)
	}
	return m
}

// Encrypt encrypts the signed integer m. With g = n+1 the ciphertext is
// (1 + m·n) · f mod n² for a fresh blinding factor f (see BlindingFactor).
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	f, err := pk.BlindingFactor(random)
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithFactor(m, f)
}

// EncryptWithFactor encrypts m using a pre-computed blinding factor (see
// BlindingFactor and NoncePool). This is the paper's "encryption executed
// in parallel during idle time" optimization: the exponentiation happens
// ahead of time, leaving only two multiplications per encryption.
func (pk *PublicKey) EncryptWithFactor(m, rn *big.Int) (*Ciphertext, error) {
	s := GetScratch()
	defer s.Put()
	em := s.Int()
	if err := pk.encodeSignedInto(em, m); err != nil {
		return nil, err
	}
	return &Ciphertext{C: new(big.Int).Set(pk.plainMul(s, em, rn))}, nil
}

// plainMul returns (1 + em·n)·c mod n² in an integer of s for em in [0, n).
// It is c + n·(em·c mod n): the product by an encoded plaintext is one mod
// n, then one conditional subtraction of n². A c outside [0, n²) — only a
// caller's own EncryptWithFactor factor can be one — is reduced first.
func (pk *PublicKey) plainMul(s *Scratch, em, c *big.Int) *big.Int {
	if c.Sign() < 0 || c.Cmp(pk.N2) >= 0 {
		c = s.Int().Mod(c, pk.N2)
	}
	v, q, r := s.Int(), s.Int(), s.Int()
	q.QuoRem(v.Mul(em, c), pk.N, r)
	v.Add(v.Mul(r, pk.N), c)
	if v.Cmp(pk.N2) >= 0 {
		v.Sub(v, pk.N2)
	}
	return v
}

// BlindingFactor computes a fresh n-th residue h_s^x mod n² — the factor an
// encryption multiplies in, which can be handed to EncryptWithFactor later.
// It reads exactly ⌈⌈|n|/2⌉/8⌉ bytes of x from random, with no rejection
// loop, so a seeded stream stays aligned; the rest is look-ups in the key's
// fixed-base table (built on the key's first call) and multiplications.
func (pk *PublicKey) BlindingFactor(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	t := pk.nonces()
	x := make([]byte, t.xLen)
	if _, err := io.ReadFull(random, x); err != nil {
		return nil, fmt.Errorf("draw nonce: %w", err)
	}
	return t.exp(x), nil
}

// validate checks c ∈ [1, n²). It does not check gcd(c, n) = 1 — a GCD
// costs many times the Add it would guard — so a non-unit (which only a
// party knowing a factor of n, or a corrupted frame, produces) surfaces
// where an inverse is needed, as ScalarMul's ErrInvalidCiphertext, or
// decrypts to garbage.
func (pk *PublicKey) validate(c *Ciphertext) error {
	if c == nil || c.C == nil {
		return ErrInvalidCiphertext
	}
	if c.C.Sign() <= 0 || c.C.Cmp(pk.N2) >= 0 {
		return ErrInvalidCiphertext
	}
	return nil
}

// Add returns a ciphertext encrypting the sum of the two plaintexts
// (E(a)·E(b) mod n²).
func (pk *PublicKey) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := pk.validate(a); err != nil {
		return nil, err
	}
	if err := pk.validate(b); err != nil {
		return nil, err
	}
	s := GetScratch()
	defer s.Put()
	return &Ciphertext{C: pk.holder().red.mulMod(s, new(big.Int), a.C, b.C)}, nil
}

// AddInPlace folds b into acc (acc.C ← acc.C·b.C mod n²), mutating the
// accumulator instead of allocating a result — the primitive behind the
// allocation-lean ring/tree fold loops. acc and b must be distinct
// ciphertexts.
func (pk *PublicKey) AddInPlace(acc, b *Ciphertext) error {
	if err := pk.validate(acc); err != nil {
		return err
	}
	if err := pk.validate(b); err != nil {
		return err
	}
	s := GetScratch()
	defer s.Put()
	pk.holder().red.mulMod(s, acc.C, acc.C, b.C)
	return nil
}

// AddPlain returns a ciphertext encrypting plaintext(c) + m without fresh
// randomness (E(a)·(1+m·n) mod n²).
func (pk *PublicKey) AddPlain(c *Ciphertext, m *big.Int) (*Ciphertext, error) {
	if err := pk.validate(c); err != nil {
		return nil, err
	}
	s := GetScratch()
	defer s.Put()
	em := s.Int()
	if err := pk.encodeSignedInto(em, m); err != nil {
		return nil, err
	}
	return &Ciphertext{C: new(big.Int).Set(pk.plainMul(s, em, c.C))}, nil
}

// ScalarMul returns a ciphertext encrypting k·plaintext(c) (E(a)^k mod n²).
// Negative scalars are supported through the signed embedding.
//
// The exponentiation is skipped entirely for k ∈ {0, ±1}: E(a)^0 = 1 (a
// valid, deterministic encryption of zero), E(a)^1 = E(a), and E(a)^{-1}
// needs only the modular inverse. Every other scalar — Protocol 4's
// reciprocal multipliers are ~20–40 bits — takes a square-and-multiply
// ladder on the key's Montgomery reducer (mont.go): the base enters the
// form once, every step is one Montgomery product, and the result leaves
// the form once. math/big's Exp switches to its own Montgomery ladder only
// for multi-word exponents, and for one-word ones pays a long division per
// bit.
func (pk *PublicKey) ScalarMul(c *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.validate(c); err != nil {
		return nil, err
	}
	if k.Sign() == 0 {
		return &Ciphertext{C: big.NewInt(1)}, nil
	}
	if k.BitLen() == 1 { // k = ±1: nothing to exponentiate
		base := new(big.Int).Set(c.C)
		if k.Sign() < 0 {
			if base.ModInverse(base, pk.N2) == nil {
				return nil, ErrInvalidCiphertext
			}
		}
		return &Ciphertext{C: base}, nil
	}
	s := GetScratch()
	defer s.Put()
	base := c.C
	if k.Sign() < 0 {
		inv := s.Int()
		if inv.ModInverse(c.C, pk.N2) == nil {
			return nil, ErrInvalidCiphertext
		}
		base = inv
	}
	exp := s.Int().Abs(k)
	r := &pk.holder().red
	w := len(r.mw)
	b, acc, t := s.words(w), s.words(w), s.words(2*w)
	r.mul(b, load(b, base), r.rr, t)
	copy(acc, b)
	for i := exp.BitLen() - 2; i >= 0; i-- {
		r.mul(acc, acc, acc, t)
		if exp.Bit(i) == 1 {
			r.mul(acc, acc, b, t)
		}
	}
	return &Ciphertext{C: r.exit(acc, t)}, nil
}

// Decrypt recovers the signed plaintext of c by CRT decryption: its
// residues modulo p and q, recombined.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	s := GetScratch()
	defer s.Put()
	mp, err := sk.residueModP(s, []*Ciphertext{c}, 0)
	if err != nil {
		return nil, err
	}
	mq := primeResidue(s, c.C, sk.q, sk.q2, sk.qMinusOne, sk.hq)

	// CRT: m = mp + p·((mq - mp)·pInvQ mod q).
	diff := s.Int().Sub(mq, mp)
	diff.Mod(diff, sk.q)
	diff.Mul(diff, sk.pInvQ)
	diff.Mod(diff, sk.q)
	m := new(big.Int).Mul(diff, sk.p)
	return sk.decodeSignedInPlace(s.Int(), m.Add(m, mp)), nil
}

// residueModP checks the key and the ciphertexts, then returns, in s's
// storage, the plaintext of Π_j c_j^(2^(width·(k−1−j))) modulo p — for one
// ciphertext its plaintext, for k of them their plaintexts laid out in
// width-bit slots (slots.go), the first on top.
func (sk *PrivateKey) residueModP(s *Scratch, cts []*Ciphertext, width int) (*big.Int, error) {
	if sk.p.Sign() == 0 {
		return nil, ErrKeyWiped
	}
	for i, c := range cts {
		if err := sk.validate(c); err != nil {
			return nil, fmt.Errorf("ciphertext %d: %w", i, err)
		}
	}
	x := cts[0].C
	if len(cts) > 1 {
		x = sk.fold(s, cts, width)
	}
	return primeResidue(s, x, sk.p, sk.p2, sk.pMinusOne, sk.hp), nil
}

// primeResidue is a decryption modulo the prime r ∈ {p, q}:
// m_r = L_r(x^{r-1} mod r²)·h_r mod r, with x reduced mod r² first — half
// the width of n², so a squaring there costs a quarter of one done before
// the split. Receivers never alias operands: math/big would allocate
// instead of reusing the arena's storage.
func primeResidue(s *Scratch, x, r, r2, rm1, h *big.Int) *big.Int {
	acc, pow, c, wide, quo := s.Int(), s.Int(), s.Int(), s.Int(), s.Int()
	quo.QuoRem(x, r2, acc)
	pow.Exp(acc, rm1, r2)
	pow.Sub(pow, one)
	quo.QuoRem(pow, r, c)
	wide.Mul(quo, h)
	quo.QuoRem(wide, r, acc)
	return acc
}
