package paillier

import (
	"errors"
	"math/big"
	"testing"
)

// TestScalarMulMatchesExp checks the Barrett ladder bit for bit against the
// definition E(a)^k mod n²: scalars of every size class Protocol 4 produces
// and beyond, both signs (a negative scalar exponentiates the inverse), and
// its edges — the shortest scalars, word boundaries and multi-word scalars.
func TestScalarMulMatchesExp(t *testing.T) {
	key := testKey(t)
	rng := testRand(11)
	c, err := key.encryptInt64(rng, 1234)
	if err != nil {
		t.Fatal(err)
	}
	inv := new(big.Int).ModInverse(c.C, key.N2)
	scalars := []*big.Int{big.NewInt(2), big.NewInt(3), big.NewInt(1 << 32), big.NewInt(1<<40 - 1),
		new(big.Int).SetUint64(1 << 63), new(big.Int).SetUint64(1<<64 - 1), new(big.Int).Lsh(one, 64)}
	for _, bits := range []int{1, 2, 3, 4, 5, 8, 15, 16, 17, 31, 47, 48, 49, 63, 64, 65, 128} {
		for i := 0; i < 10; i++ {
			scalars = append(scalars, new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits))))
		}
	}
	for _, k := range scalars {
		for _, base := range []*big.Int{c.C, inv} {
			got, err := key.ScalarMul(c, k)
			if err != nil {
				t.Fatalf("ScalarMul(%v): %v", k, err)
			}
			if want := new(big.Int).Exp(base, new(big.Int).Abs(k), key.N2); got.C.Cmp(want) != 0 {
				t.Fatalf("ScalarMul(%v) = %v, want %v", k, got.C, want)
			}
			k.Neg(k)
		}
	}
}

// TestScalarMulEdgeCases pins the degenerate ciphertexts and scalars: the
// unit ciphertext stays the unit at any scalar, a zero scalar yields it,
// and small scalars are the plain products.
func TestScalarMulEdgeCases(t *testing.T) {
	key := testKey(t)
	cases := []struct{ c, k, want int64 }{
		{7, 0, 1},
		{7, 1, 7},
		{7, 2, 49},
		{1, 1 << 30, 1},
		{2, 19, 1 << 19},
		{1, -(1 << 30), 1},
	}
	for _, tc := range cases {
		got, err := key.ScalarMul(&Ciphertext{C: big.NewInt(tc.c)}, big.NewInt(tc.k))
		if err != nil {
			t.Fatalf("ScalarMul(%d, %d): %v", tc.c, tc.k, err)
		}
		if got.C.Int64() != tc.want {
			t.Errorf("ScalarMul(%d, %d) = %v, want %d", tc.c, tc.k, got.C, tc.want)
		}
	}
	// A non-unit has no inverse: a negative scalar must say so, not panic.
	p := &Ciphertext{C: new(big.Int).Set(key.p)}
	for _, k := range []int64{-1, -5} {
		if _, err := key.ScalarMul(p, big.NewInt(k)); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("ScalarMul(non-unit, %d): err = %v, want ErrInvalidCiphertext", k, err)
		}
	}
}

func TestScalarMulFastPaths(t *testing.T) {
	key := testKey(t)
	rng := testRand(12)
	c, err := key.encryptInt64(rng, 1234)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("zero", func(t *testing.T) {
		out, err := key.ScalarMul(c, big.NewInt(0))
		if err != nil {
			t.Fatal(err)
		}
		if out.C.Cmp(big.NewInt(1)) != 0 {
			t.Errorf("E(m)^0 = %v, want 1", out.C)
		}
		if m, err := key.decryptInt64(out); err != nil || m != 0 {
			t.Errorf("decrypt(E(m)^0) = %d, %v; want 0", m, err)
		}
	})
	t.Run("one", func(t *testing.T) {
		out, err := key.ScalarMul(c, big.NewInt(1))
		if err != nil {
			t.Fatal(err)
		}
		if out.C.Cmp(c.C) != 0 {
			t.Error("E(m)^1 should preserve the ciphertext value")
		}
		if out.C == c.C {
			t.Error("E(m)^1 must not alias the input ciphertext")
		}
		if m, err := key.decryptInt64(out); err != nil || m != 1234 {
			t.Errorf("decrypt = %d, %v; want 1234", m, err)
		}
	})
	t.Run("minus-one", func(t *testing.T) {
		out, err := key.ScalarMul(c, big.NewInt(-1))
		if err != nil {
			t.Fatal(err)
		}
		if m, err := key.decryptInt64(out); err != nil || m != -1234 {
			t.Errorf("decrypt = %d, %v; want -1234", m, err)
		}
	})
	// Boundary scalars around the fast-path cutoffs, checked against the
	// plaintext product.
	for _, k := range []int64{2, -2, 3, 15, 16, 17, -17, 1 << 20, -(1 << 20)} {
		out, err := key.ScalarMul(c, big.NewInt(k))
		if err != nil {
			t.Fatalf("ScalarMul(%d): %v", k, err)
		}
		m, err := key.decryptInt64(out)
		if err != nil {
			t.Fatalf("Decrypt after ScalarMul(%d): %v", k, err)
		}
		if m != 1234*k {
			t.Errorf("ScalarMul(%d) decrypts to %d, want %d", k, m, 1234*k)
		}
	}
	// A scalar wider than a machine word; verify via homomorphism on an
	// encryption of 1.
	cOne, err := key.encryptInt64(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 70)
	out, err := key.ScalarMul(cOne, huge)
	if err != nil {
		t.Fatal(err)
	}
	m, err := key.Decrypt(out)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cmp(huge) != 0 {
		t.Errorf("ScalarMul(2^70) decrypts to %v, want 2^70", m)
	}
}

// BenchmarkScalarMulSmallExponent prices Protocol 4's scalar step against
// the bare exponentiation it wraps.
func BenchmarkScalarMulSmallExponent(b *testing.B) {
	key := testKey(b)
	rng := testRand(13)
	c, err := key.encryptInt64(rng, 42)
	if err != nil {
		b.Fatal(err)
	}
	k := big.NewInt(976562500) // a typical ~30-bit Protocol 4 reciprocal
	b.Run("scalarmul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := key.ScalarMul(c, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bigexp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = new(big.Int).Exp(c.C, k, key.N2)
		}
	})
}
