package paillier

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"testing"
)

// TestGenerateKeyGolden pins the prime sampler: seeded keys are part of
// what the durability layer replays bit for bit, so the bytes a candidate
// reads, the bits it forces and which candidate wins must not move. The
// hashes were taken from the sampler before it sieved candidates; a change
// here is a deliberate edit of these constants.
func TestGenerateKeyGolden(t *testing.T) {
	for _, g := range []struct {
		bits int
		seed int64
		n    string // SHA-256 of n's big-endian bytes
	}{
		{256, 1, "b46a7dab5f197cbe042bbfd348470cfe1ba7f30415c9320753a410719da4dac1"},
		{256, 2, "6a565c0804cf0f1df383feef0c2d3a7d6c29f76ca5a5a794ce4e1ef2d96021b8"},
		{256, 3, "b38487c2895f7152c077ae9a0eabbc5126845be0fbe44e6e6999efd5c89c69e9"},
		{256, 20200425, "f2c87f83d6e8eb45a09ea5a58a8f345de4984627bbdc8f1a6dfc064e008f5daf"},
		{512, 1, "daec1e7cdfa35a2e5060fd42858e66c13fa91af0e1534c92020922c47e489173"},
		{512, 2, "0f692b89c3bb59b3b383a85f0a94bcce07db041484a387d4e1e2108a6c3680e3"},
		{512, 3, "00aec223c5e99b67fc51dd721f5c3c045e96c8d402e3656ab503655d3696701b"},
		{512, 20200425, "46b6ea33b08a7db710cae88be3a4fa6c7d478544537decc06e4a23362408b649"},
		{1024, 1, "eb39cdfb5a9703664cbda4bf9086c02dc39c48eeecdf2908ae8f917e3fff8900"},
		{1024, 2, "49e9ff1160f20e8df5d911e2e743f6e58e11fa2cc67dc35d8f6cdb373afc2177"},
		{1024, 3, "b004431c2b27587ad1b2cde56d35a5cf66bf055f5206015dc74941d59d7d2b69"},
		{1024, 20200425, "fad833227d4400151c0b44ef4367197b231a49506f4f0f02c8c479d1d2d5bcb9"},
	} {
		key, err := GenerateKey(testRand(g.seed), g.bits)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(key.N.Bytes()); hex.EncodeToString(sum[:]) != g.n {
			t.Errorf("GenerateKey(seed %d, %d bits): SHA-256(n) = %x, want %s", g.seed, g.bits, sum, g.n)
		}
	}
}

// TestCRTConstantsMatchDefinition checks the closed forms h_p = −q^{-1}
// mod p and h_q = −p^{-1} mod q against the definition h_r =
// L_r(g^{r−1} mod r²)^{-1} mod r, g = n+1.
func TestCRTConstantsMatchDefinition(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		key, err := GenerateKey(testRand(seed), 256)
		if err != nil {
			t.Fatal(err)
		}
		g := new(big.Int).Add(key.N, one)
		for _, r := range []struct{ r, r2, rm1, h *big.Int }{
			{key.p, key.p2, key.pMinusOne, key.hp},
			{key.q, key.q2, key.qMinusOne, key.hq},
		} {
			x := new(big.Int).Exp(g, r.rm1, r.r2)
			l := x.Div(x.Sub(x, one), r.r)
			if want := l.ModInverse(l, r.r); r.h.Cmp(want) != 0 {
				t.Fatalf("seed %d: h = %v, definition gives %v", seed, r.h, want)
			}
		}
	}
}

// TestSieveRejectsOnlyComposites checks hasSmallFactor against its
// definition on every odd number just above the sieve bound, where a
// wrongly packed group would first show, and on multi-word values: the
// Mersenne primes 2^127−1 and 2^521−1 pass, their products with any odd
// number below 2^12 do not.
func TestSieveRejectsOnlyComposites(t *testing.T) {
	for v := int64(1<<sieveBits + 1); v < 1<<(sieveBits+4); v += 2 {
		want := false
		for q := int64(3); q < 1<<sieveBits && q*q <= v; q += 2 {
			if v%q == 0 {
				want = true
				break
			}
		}
		if got := hasSmallFactor(big.NewInt(v)); got != want {
			t.Fatalf("hasSmallFactor(%d) = %v, want %v", v, got, want)
		}
	}
	for _, e := range []uint{127, 521} {
		m := new(big.Int).Sub(new(big.Int).Lsh(one, e), one)
		if hasSmallFactor(m) {
			t.Fatalf("hasSmallFactor(2^%d−1) = true for a prime", e)
		}
		for q := int64(3); q < 1<<sieveBits; q += 2 {
			if !hasSmallFactor(new(big.Int).Mul(m, big.NewInt(q))) {
				t.Fatalf("hasSmallFactor((2^%d−1)·%d) = false", e, q)
			}
		}
	}
}

func BenchmarkRandomPrime(b *testing.B) {
	for _, bits := range []int{256, 512} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			rng := testRand(29)
			for i := 0; i < b.N; i++ {
				if _, err := randomPrime(rng, bits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
